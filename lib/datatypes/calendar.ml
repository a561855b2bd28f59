type timezone = int option

let pp_timezone ppf = function
  | None -> ()
  | Some 0 -> Format.pp_print_char ppf 'Z'
  | Some m ->
    let sign = if m < 0 then '-' else '+' in
    let m = abs m in
    Format.fprintf ppf "%c%02d:%02d" sign (m / 60) (m mod 60)

type date_time = {
  year : int;
  month : int;
  day : int;
  hour : int;
  minute : int;
  second : Decimal.t;
  tz : timezone;
}

let is_leap_year y = (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0

let days_in_month ~year ~month =
  match month with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 -> if is_leap_year year then 29 else 28
  | _ -> invalid_arg "days_in_month"

(* Howard Hinnant's days_from_civil, shifted so that 2000-03-01 is day 0. *)
let days_from_civil ~year ~month ~day =
  let y = if month <= 2 then year - 1 else year in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - (era * 400) in
  let mp = (month + 9) mod 12 in
  let doy = ((153 * mp) + 2) / 5 + day - 1 in
  let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
  (era * 146097) + doe - 730485

(* ------------------------------------------------------------------ *)
(* Lexical scanning                                                    *)

type scan = { s : string; mutable i : int }

exception Bad of string

let fail msg = raise (Bad msg)
let left sc = String.length sc.s - sc.i
let peek sc = if sc.i < String.length sc.s then sc.s.[sc.i] else '\255'

let lit sc c =
  if peek sc = c then sc.i <- sc.i + 1
  else fail (Printf.sprintf "expected %C in %S" c sc.s)

let digits sc n =
  if left sc < n then fail "truncated number";
  let v = ref 0 in
  for k = sc.i to sc.i + n - 1 do
    let c = sc.s.[k] in
    if c < '0' || c > '9' then fail "expected digit";
    v := (!v * 10) + Char.code c - Char.code '0'
  done;
  sc.i <- sc.i + n;
  !v

(* year: optional '-', at least 4 digits, no leading zero beyond 4. *)
let scan_year sc =
  let neg = peek sc = '-' in
  if neg then sc.i <- sc.i + 1;
  let start = sc.i in
  while peek sc >= '0' && peek sc <= '9' do
    sc.i <- sc.i + 1
  done;
  let len = sc.i - start in
  if len < 4 then fail "year must have at least 4 digits";
  if len > 4 && sc.s.[start] = '0' then fail "year has leading zero";
  let v = int_of_string (String.sub sc.s start len) in
  if v = 0 then fail "year 0000 is not allowed";
  if neg then -v else v

let scan_seconds sc =
  let start = sc.i in
  let d1 = digits sc 2 in
  ignore d1;
  if peek sc = '.' then begin
    sc.i <- sc.i + 1;
    if not (peek sc >= '0' && peek sc <= '9') then fail "empty fractional seconds";
    while peek sc >= '0' && peek sc <= '9' do
      sc.i <- sc.i + 1
    done
  end;
  let str = String.sub sc.s start (sc.i - start) in
  match Decimal.of_string str with
  | Ok d ->
    if Decimal.compare d (Decimal.of_int 60) >= 0 then fail "seconds >= 60";
    d
  | Error e -> fail e

let scan_timezone sc =
  match peek sc with
  | 'Z' ->
    sc.i <- sc.i + 1;
    Some 0
  | ('+' | '-') as c ->
    sc.i <- sc.i + 1;
    let h = digits sc 2 in
    lit sc ':';
    let m = digits sc 2 in
    if h > 14 || m > 59 || (h = 14 && m > 0) then fail "timezone out of range";
    let v = (h * 60) + m in
    Some (if c = '-' then -v else v)
  | _ -> None

let finish sc v = if sc.i <> String.length sc.s then fail "trailing characters" else v

let check_month m = if m < 1 || m > 12 then fail "month out of range" else m

let check_day ~year ~month d =
  if d < 1 || d > days_in_month ~year ~month then fail "day out of range" else d

let check_hm h m =
  if h > 23 then fail "hour out of range";
  if m > 59 then fail "minute out of range";
  (h, m)

let run s f =
  let sc = { s; i = 0 } in
  match f sc with v -> Ok v | exception Bad m -> Error m

let ref_dt =
  { year = 2000; month = 1; day = 1; hour = 0; minute = 0; second = Decimal.zero; tz = None }

(* ------------------------------------------------------------------ *)
(* dateTime                                                            *)

let parse_date_time s =
  run s (fun sc ->
      let year = scan_year sc in
      lit sc '-';
      let month = check_month (digits sc 2) in
      lit sc '-';
      let day = check_day ~year ~month (digits sc 2) in
      lit sc 'T';
      let hour = digits sc 2 in
      lit sc ':';
      let minute = digits sc 2 in
      let hour, minute = check_hm hour minute in
      lit sc ':';
      let second = scan_seconds sc in
      let tz = scan_timezone sc in
      finish sc { year; month; day; hour; minute; second; tz })

let print_year y = if y < 0 then Printf.sprintf "-%04d" (-y) else Printf.sprintf "%04d" y

let print_seconds d =
  let s = Decimal.to_string d in
  match String.index_opt s '.' with
  | Some i when i = 1 -> "0" ^ s
  | None when String.length s = 1 -> "0" ^ s
  | _ -> s

let tz_string tz = Format.asprintf "%a" pp_timezone tz

let print_date_time dt =
  Printf.sprintf "%s-%02d-%02dT%02d:%02d:%s%s" (print_year dt.year) dt.month dt.day
    dt.hour dt.minute (print_seconds dt.second) (tz_string dt.tz)

let epoch_seconds dt =
  let days = days_from_civil ~year:dt.year ~month:dt.month ~day:dt.day + 61 in
  (* +61 realigns internal epoch 2000-03-01 to 2000-01-01 *)
  let tz_min = match dt.tz with None -> 0 | Some m -> m in
  let whole = ((((days * 24) + dt.hour) * 60) + dt.minute - tz_min) * 60 in
  Decimal.add (Decimal.of_int whole) dt.second

let compare_date_time a b = Decimal.compare (epoch_seconds a) (epoch_seconds b)

(* ------------------------------------------------------------------ *)
(* Partial date/time types                                             *)

type date = date_time
type time = date_time
type g_year_month = date_time
type g_year = date_time
type g_month_day = date_time
type g_day = date_time
type g_month = date_time

let parse_date s =
  run s (fun sc ->
      let year = scan_year sc in
      lit sc '-';
      let month = check_month (digits sc 2) in
      lit sc '-';
      let day = check_day ~year ~month (digits sc 2) in
      let tz = scan_timezone sc in
      finish sc { ref_dt with year; month; day; tz })

let print_date dt =
  Printf.sprintf "%s-%02d-%02d%s" (print_year dt.year) dt.month dt.day (tz_string dt.tz)

let parse_time s =
  run s (fun sc ->
      let hour = digits sc 2 in
      lit sc ':';
      let minute = digits sc 2 in
      let hour, minute = check_hm hour minute in
      lit sc ':';
      let second = scan_seconds sc in
      let tz = scan_timezone sc in
      finish sc { ref_dt with hour; minute; second; tz })

let print_time dt =
  Printf.sprintf "%02d:%02d:%s%s" dt.hour dt.minute (print_seconds dt.second) (tz_string dt.tz)

let parse_g_year_month s =
  run s (fun sc ->
      let year = scan_year sc in
      lit sc '-';
      let month = check_month (digits sc 2) in
      let tz = scan_timezone sc in
      finish sc { ref_dt with year; month; tz })

let print_g_year_month dt = Printf.sprintf "%s-%02d%s" (print_year dt.year) dt.month (tz_string dt.tz)

let parse_g_year s =
  run s (fun sc ->
      let year = scan_year sc in
      let tz = scan_timezone sc in
      finish sc { ref_dt with year; tz })

let print_g_year dt = Printf.sprintf "%s%s" (print_year dt.year) (tz_string dt.tz)

let parse_g_month_day s =
  run s (fun sc ->
      lit sc '-';
      lit sc '-';
      let month = check_month (digits sc 2) in
      lit sc '-';
      let day = check_day ~year:2000 ~month (digits sc 2) in
      let tz = scan_timezone sc in
      finish sc { ref_dt with month; day; tz })

let print_g_month_day dt = Printf.sprintf "--%02d-%02d%s" dt.month dt.day (tz_string dt.tz)

let parse_g_day s =
  run s (fun sc ->
      lit sc '-';
      lit sc '-';
      lit sc '-';
      let day = check_day ~year:2000 ~month:1 (digits sc 2) in
      let tz = scan_timezone sc in
      finish sc { ref_dt with day; tz })

let print_g_day dt = Printf.sprintf "---%02d%s" dt.day (tz_string dt.tz)

let parse_g_month s =
  run s (fun sc ->
      lit sc '-';
      lit sc '-';
      let month = check_month (digits sc 2) in
      let tz = scan_timezone sc in
      finish sc { ref_dt with month; tz })

let print_g_month dt = Printf.sprintf "--%02d%s" dt.month (tz_string dt.tz)

(* ------------------------------------------------------------------ *)
(* Durations                                                           *)

type duration = { negative : bool; months : int; seconds : Decimal.t }

let parse_duration s =
  run s (fun sc ->
      let negative = peek sc = '-' in
      if negative then sc.i <- sc.i + 1;
      lit sc 'P';
      let scan_number () =
        let start = sc.i in
        while peek sc >= '0' && peek sc <= '9' do
          sc.i <- sc.i + 1
        done;
        if sc.i = start then fail "expected number in duration";
        int_of_string (String.sub sc.s start (sc.i - start))
      in
      let months = ref 0 and seconds = ref Decimal.zero and any = ref false in
      (* date part: Y, M, D in order, each optional *)
      let rec date_part allowed =
        if peek sc <> 'T' && peek sc <> '\255' then begin
          let n = scan_number () in
          match peek sc with
          | 'Y' when List.mem 'Y' allowed ->
            sc.i <- sc.i + 1;
            months := !months + (n * 12);
            any := true;
            date_part (List.filter (fun c -> c = 'M' || c = 'D') allowed)
          | 'M' when List.mem 'M' allowed ->
            sc.i <- sc.i + 1;
            months := !months + n;
            any := true;
            date_part [ 'D' ]
          | 'D' when List.mem 'D' allowed ->
            sc.i <- sc.i + 1;
            seconds := Decimal.add !seconds (Decimal.of_int (n * 86400));
            any := true
          | _ -> fail "malformed duration date part"
        end
      in
      date_part [ 'Y'; 'M'; 'D' ];
      if peek sc = 'T' then begin
        sc.i <- sc.i + 1;
        if peek sc = '\255' then fail "empty time part in duration";
        let rec time_part allowed =
          if peek sc <> '\255' then begin
            (* seconds may be decimal *)
            let start = sc.i in
            while (peek sc >= '0' && peek sc <= '9') || peek sc = '.' do
              sc.i <- sc.i + 1
            done;
            if sc.i = start then fail "expected number in duration";
            let text = String.sub sc.s start (sc.i - start) in
            match peek sc with
            | 'H' when List.mem 'H' allowed && not (String.contains text '.') ->
              sc.i <- sc.i + 1;
              seconds := Decimal.add !seconds (Decimal.of_int (int_of_string text * 3600));
              any := true;
              time_part [ 'M'; 'S' ]
            | 'M' when List.mem 'M' allowed && not (String.contains text '.') ->
              sc.i <- sc.i + 1;
              seconds := Decimal.add !seconds (Decimal.of_int (int_of_string text * 60));
              any := true;
              time_part [ 'S' ]
            | 'S' when List.mem 'S' allowed ->
              sc.i <- sc.i + 1;
              (match Decimal.of_string text with
              | Ok d ->
                seconds := Decimal.add !seconds d;
                any := true
              | Error e -> fail e)
            | _ -> fail "malformed duration time part"
          end
        in
        time_part [ 'H'; 'M'; 'S' ]
      end;
      if not !any then fail "duration must have at least one component";
      let negative = if !months = 0 && Decimal.sign !seconds = 0 then false else negative in
      finish sc { negative; months = !months; seconds = !seconds })

let print_duration d =
  if d.months = 0 && Decimal.sign d.seconds = 0 then "PT0S"
  else begin
    let buf = Buffer.create 16 in
    if d.negative then Buffer.add_char buf '-';
    Buffer.add_char buf 'P';
    let years = d.months / 12 and months = d.months mod 12 in
    if years > 0 then Buffer.add_string buf (string_of_int years ^ "Y");
    if months > 0 then Buffer.add_string buf (string_of_int months ^ "M");
    (* split seconds into D/H/M/S using integer division on the whole part *)
    let total = d.seconds in
    let day_sec = Decimal.of_int 86400 in
    let rec count_units value unit =
      if Decimal.compare value unit >= 0 then
        let n, rest = count_units (Decimal.sub value unit) unit in
        (n + 1, rest)
      else (0, value)
    in
    (* count_units is linear; days can be large, so divide via ints when exact *)
    let days, rem =
      match Decimal.to_int total with
      | Some n -> (n / 86400, Decimal.of_int (n mod 86400))
      | None ->
        (* fractional seconds: pull out the whole part via float guess then fix *)
        count_units total day_sec
    in
    let hours, rem =
      match Decimal.to_int rem with
      | Some n -> (n / 3600, Decimal.of_int (n mod 3600))
      | None -> count_units rem (Decimal.of_int 3600)
    in
    let minutes, rem =
      match Decimal.to_int rem with
      | Some n -> (n / 60, Decimal.of_int (n mod 60))
      | None -> count_units rem (Decimal.of_int 60)
    in
    if days > 0 then Buffer.add_string buf (string_of_int days ^ "D");
    if hours > 0 || minutes > 0 || Decimal.sign rem <> 0 then begin
      Buffer.add_char buf 'T';
      if hours > 0 then Buffer.add_string buf (string_of_int hours ^ "H");
      if minutes > 0 then Buffer.add_string buf (string_of_int minutes ^ "M");
      if Decimal.sign rem <> 0 then Buffer.add_string buf (Decimal.to_string rem ^ "S")
    end;
    Buffer.contents buf
  end

let add_duration dt dur =
  let sign = if dur.negative then -1 else 1 in
  (* months first, clamping the day *)
  let total_months = ((dt.year * 12) + dt.month - 1) + (sign * dur.months) in
  let year = if total_months >= 0 then total_months / 12 else ((total_months + 1) / 12) - 1 in
  let month = total_months - (year * 12) + 1 in
  let day = min dt.day (days_in_month ~year ~month) in
  (* then seconds on the timeline *)
  let base = { dt with year; month; day } in
  let total = Decimal.add (epoch_seconds base) (if dur.negative then Decimal.negate dur.seconds else dur.seconds) in
  (* rebuild a date_time from epoch seconds, keeping the original tz *)
  let tz_min = match dt.tz with None -> 0 | Some m -> m in
  let shifted = Decimal.add total (Decimal.of_int (tz_min * 60)) in
  let whole, frac =
    match Decimal.to_int shifted with
    | Some n -> (n, Decimal.zero)
    | None ->
      (* floor to the integer second, keep the fraction *)
      let f = Decimal.to_float shifted in
      let w = int_of_float (Float.round (floor f)) in
      (w, Decimal.sub shifted (Decimal.of_int w))
  in
  let days = if whole >= 0 then whole / 86400 else ((whole + 1) / 86400) - 1 in
  let secs = whole - (days * 86400) in
  let hour = secs / 3600 in
  let minute = secs mod 3600 / 60 in
  let second = Decimal.add (Decimal.of_int (secs mod 60)) frac in
  (* civil_from_days, inverse of days_from_civil (internal epoch day 0 = 2000-03-01) *)
  let z = days - 61 + 730485 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - (era * 146097) in
  let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
  let y = yoe + (era * 400) in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let day = doy - (((153 * mp) + 2) / 5) + 1 in
  let month = if mp < 10 then mp + 3 else mp - 9 in
  let year = if month <= 2 then y + 1 else y in
  { year; month; day; hour; minute; second; tz = dt.tz }

let reference_points =
  [ (1696, 9); (1697, 2); (1903, 3); (1903, 7) ]
  |> List.map (fun (year, month) -> { ref_dt with year; month; tz = Some 0 })

let compare_duration a b =
  let outcomes =
    List.map
      (fun r -> compare_date_time (add_duration r a) (add_duration r b))
      reference_points
  in
  match outcomes with
  | [] -> None
  | first :: rest ->
    let sgn x = compare x 0 in
    if List.for_all (fun o -> sgn o = sgn first) rest then Some (sgn first) else None

let equal_duration a b = compare_duration a b = Some 0
