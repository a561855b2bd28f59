(** Value spaces of the date/time primitive types of XML Schema Part 2:
    [dateTime], [date], [time], [gYearMonth], [gYear], [gMonthDay],
    [gDay], [gMonth] and [duration].

    Timezones are minute offsets from UTC in [-840, 840]; a missing
    timezone makes comparison with a zoned value follow the W3C ±14h
    rule only approximately — we adopt the common simplification of
    treating unzoned values as UTC and document it in DESIGN.md.
    Durations compare by the four-reference-dateTime method of the
    spec, so the order is partial ([compare] returns an option). *)

type timezone = int option
(** Offset from UTC in minutes, [Some 0] for ["Z"], [None] if absent. *)

type date_time = {
  year : int;  (** may be negative; 0 is not a valid year in XSD 1.0 *)
  month : int;  (** 1..12 *)
  day : int;  (** 1..31, checked against the month *)
  hour : int;  (** 0..23, or 24 only with 00:00 (normalized away) *)
  minute : int;  (** 0..59 *)
  second : Decimal.t;  (** 0 <= s < 60; fractional seconds allowed *)
  tz : timezone;
}

val parse_date_time : string -> (date_time, string) result
val print_date_time : date_time -> string
val compare_date_time : date_time -> date_time -> int

(** Partial date types share the [date_time] record; absent fields hold
    their reference values and are ignored by printing/comparison. *)

type date = date_time  (** hour/minute/second fixed at 0 *)

val parse_date : string -> (date, string) result
val print_date : date -> string

type time = date_time  (** year/month/day fixed at reference 2000-01-01 *)

val parse_time : string -> (time, string) result
val print_time : time -> string

type g_year_month = date_time

val parse_g_year_month : string -> (g_year_month, string) result
val print_g_year_month : g_year_month -> string

type g_year = date_time

val parse_g_year : string -> (g_year, string) result
val print_g_year : g_year -> string

type g_month_day = date_time

val parse_g_month_day : string -> (g_month_day, string) result
val print_g_month_day : g_month_day -> string

type g_day = date_time

val parse_g_day : string -> (g_day, string) result
val print_g_day : g_day -> string

type g_month = date_time

val parse_g_month : string -> (g_month, string) result
val print_g_month : g_month -> string

(** {1 Durations} *)

type duration = {
  negative : bool;
  months : int;  (** years folded in: Y*12 + M *)
  seconds : Decimal.t;  (** days/hours/minutes folded into seconds *)
}

val parse_duration : string -> (duration, string) result
val print_duration : duration -> string

val compare_duration : duration -> duration -> int option
(** [None] when the durations are incomparable (the four reference
    dateTimes disagree), per the spec's partial order. *)

val equal_duration : duration -> duration -> bool

val add_duration : date_time -> duration -> date_time
(** Calendar addition per Appendix E of XML Schema Part 2: months are
    added first with day-of-month clamping, then the seconds. *)

(** {1 Calendar helpers} *)

val is_leap_year : int -> bool
val days_in_month : year:int -> month:int -> int

