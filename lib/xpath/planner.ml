open Path_ast
module Extent = Xsm_index.Extent
module VI = Xsm_index.Value_index
module Counter = Xsm_obs.Metrics.Counter
module Histogram = Xsm_obs.Metrics.Histogram
module Trace = Xsm_obs.Trace

(* Registry totals across every planner in the process; each planner
   holds private cells so [maintenance_stats] stays per-instance. *)
let m_epochs = Counter.make ~help:"full path-index builds" "planner.epochs"
let m_applied = Counter.make ~help:"changes absorbed without a rebuild" "planner.applied"
let m_vi_drops = Counter.make ~help:"value indexes dropped for lazy rebuild" "planner.vi_drops"
let m_pruned = Counter.make ~help:"queries answered empty by the static oracle" "planner.pruned"
let m_index_hits = Counter.make ~help:"queries answered from the path index" "planner.index_hits"
let m_fallbacks = Counter.make ~help:"queries handed to the navigational evaluator" "planner.fallbacks"
let h_drain = Histogram.make ~help:"latency of one apply_changes batch (ns)" "planner.drain_ns"

type maintenance_stats = {
  epochs : int;  (* full index builds so far (1 = the initial build) *)
  applied : int;  (* changes absorbed without a rebuild *)
  vi_drops : int;  (* value indexes dropped for lazy rebuild *)
}

(* How predicate strategies are chosen: [Rule] always probes a value
   index and always semi-joins (the historical behavior); [Cost]
   prices each candidate route and picks the cheapest. *)
type policy = Rule | Cost

(* One priced strategy choice, kept for [explain]: predicate, the
   chosen strategy, the indexed route's price, the residual price. *)
type decision = { d_pred : string; d_chosen : string; d_indexed : float; d_residual : float }

(* What one evaluation looked like, pushed to the digest sink (the
   daemon's flight recorder) as [eval] returns.  The estimate is a
   thunk: interval arithmetic over the provider is cheap but not free,
   and most digests are never inspected — only a consumer that keeps
   the digest (slow/error tail, explicit introspection) forces it.
   Unlike [explain_json], forcing it never re-evaluates the query. *)
type digest = {
  dg_query : string;
  dg_route : string;  (* "pruned" | "index" | "fallback" *)
  dg_reason : string;  (* prune or fallback reason; "" for index *)
  dg_actual : int;
  dg_estimate : unit -> Plan.estimate option;
}

let digest_json d =
  let module J = Xsm_obs.Json in
  let est =
    match d.dg_estimate () with
    | None -> []
    | Some e ->
      [
        ("est", Plan.est_to_json e.Plan.e_rows);
        ("est_rows", J.Num e.Plan.e_rows.Plan.expect);
        ("in_interval", J.Bool (Plan.contains e.Plan.e_rows d.dg_actual));
        ( "abs_error",
          J.Num (Float.abs (e.Plan.e_rows.Plan.expect -. float_of_int d.dg_actual)) );
      ]
  in
  J.Obj
    ([ ("query", J.Str d.dg_query); ("route", J.Str d.dg_route) ]
    @ (if d.dg_reason = "" then [] else [ ("reason", J.Str d.dg_reason) ])
    @ [ ("actual_rows", J.int d.dg_actual) ]
    @ est)

module Make
    (N : Navigator.S)
    (I : Xsm_index.Path_index.S with type backend = N.t and type node = N.node) =
struct
  module PI = I
  module E = Eval.Make (N)

  exception Fallback of string

  (* A cached value index plus what maintenance needs to know about
     it: the relative path it was built from, the pnode ids its
     targets came from, and whether that target set was computed
     purely structurally (no predicates) — only then can we maintain
     it differentially; otherwise any change drops it for lazy
     rebuild. *)
  type vindex = {
    vi : VI.t;
    v_rel : path;
    v_targets : (int, unit) Hashtbl.t;
    v_structural : bool;
  }

  type t = {
    backend : N.t;
    root : N.node;
    mutable pindex : PI.t;
    mutable is_stale : bool;
    mutable pnodes_seen : int;
        (* path nodes the value indexes' target sets were last checked
           against; more now means new paths they may have to cover *)
    scans : (int, N.node Extent.t) Hashtbl.t;
        (* the extents one evaluation has read, by pnode id: an extent
           read scans its blocks over storage, so once is enough *)
    values : (int * string, vindex) Hashtbl.t;
        (* (pnode id, printed relative path) -> its typed value index *)
    epoch : Counter.cell;
    applied : Counter.cell;
    vi_drops : Counter.cell;
    mutable pruner : (path -> string option) option;
        (* static emptiness oracle (Xsm_analysis.Query_static.pruner):
           Some reason proves the path selects nothing on any
           schema-valid instance *)
    pruned : Counter.cell;
    mutable policy : policy;
    vi_drop_hist : (int * string, int) Hashtbl.t;
        (* per value-index key: how often maintenance dropped it —
           evidence against amortizing a rebuild over future reuses *)
    mutable decisions : decision list;  (* strategy picks of the last plan *)
    mutable rewriter : (path -> path) option;
        (* static simplifier (Query_static.fold): drops predicates
           proven to hold on every schema-valid instance *)
    mutable digest_sink : (digest -> unit) option;
        (* per-evaluation digest consumer (the daemon's flight
           recorder); None keeps eval free of digest work *)
  }

  let create backend root =
    let epoch = Counter.cell m_epochs in
    Counter.cell_incr epoch;  (* the initial build counts as epoch 1 *)
    let pindex = PI.build backend root in
    {
      backend;
      root;
      pindex;
      is_stale = false;
      pnodes_seen = PI.pnode_count pindex;
      scans = Hashtbl.create 8;
      values = Hashtbl.create 16;
      epoch;
      applied = Counter.cell m_applied;
      vi_drops = Counter.cell m_vi_drops;
      pruner = None;
      pruned = Counter.cell m_pruned;
      policy = Cost;
      vi_drop_hist = Hashtbl.create 16;
      decisions = [];
      rewriter = None;
      digest_sink = None;
    }

  let set_pruner t f = t.pruner <- Some f
  let pruned_count t = Counter.cell_value t.pruned
  let set_policy t p = t.policy <- p
  let policy t = t.policy
  let set_rewriter t f = t.rewriter <- Some f

  (* Apply the static simplifier under the same soundness guard as the
     pruner: only for evaluations anchored at the indexed root. *)
  let rewrite t ?context (p : path) =
    match t.rewriter with
    | Some f when p.absolute || Option.is_none context -> f p
    | _ -> p

  (* Consult the static oracle.  Only when the evaluation would start
     at the indexed root: a caller-supplied context node can make a
     relative path reach nodes the root-anchored analysis never saw. *)
  let prune_reason t ?context (p : path) =
    match t.pruner with
    | None -> None
    | Some f -> if p.absolute || Option.is_none context then f p else None

  let refresh t =
    t.pindex <- PI.build t.backend t.root;
    t.pnodes_seen <- PI.pnode_count t.pindex;
    Hashtbl.reset t.values;
    t.is_stale <- false;
    Counter.cell_incr t.epoch

  let invalidate t = t.is_stale <- true
  let stale t = t.is_stale
  let index t = t.pindex
  let value_index_count t = Hashtbl.length t.values

  (* a view over this planner's registry cells *)
  let maintenance_stats t =
    {
      epochs = Counter.cell_value t.epoch;
      applied = Counter.cell_value t.applied;
      vi_drops = Counter.cell_value t.vi_drops;
    }

  (* ---- node tests on path-index nodes (mirrors Eval.test_matches) ---- *)

  let test_matches test pn =
    match test, PI.kind pn with
    | Name_test n, (`Element | `Attribute) -> (
      match PI.name pn with Some m -> Xsm_xml.Name.equal m n | None -> false)
    | Name_test _, (`Document | `Text) -> false
    | Wildcard, `Element -> true
    | Wildcard, `Attribute -> true
    | Wildcard, (`Document | `Text) -> false
    | Text_test, `Text -> true
    | Text_test, (`Document | `Element | `Attribute) -> false
    | Node_test, _ -> true

  (* A candidate: one path-index node, optionally with its extent
     restricted by predicates seen so far.  [None] means the full
     extent — the common pure-path case, where no label join runs. *)
  type cand = { pn : PI.pnode; restr : N.node Extent.t option }

  let extent t pn =
    let pid = PI.id pn in
    match Hashtbl.find_opt t.scans pid with
    | Some e -> e
    | None ->
      let e = PI.extent t.pindex pn in
      Hashtbl.add t.scans pid e;
      e

  let cand_extent t c = match c.restr with Some e -> e | None -> extent t c.pn

  let narrow t join base_restr pn =
    match base_restr with
    | None -> None
    | Some restr -> Some (join ~among:restr (extent t pn))

  let merge_cands cands =
    (* group by pnode; an unrestricted candidate absorbs restricted ones *)
    let tbl = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun c ->
        let pid = PI.id c.pn in
        match Hashtbl.find_opt tbl pid with
        | None ->
          Hashtbl.add tbl pid c;
          order := pid :: !order
        | Some prev ->
          let merged =
            match prev.restr, c.restr with
            | None, _ | _, None -> { prev with restr = None }
            | Some a, Some b -> { prev with restr = Some (Extent.merge [ a; b ]) }
          in
          Hashtbl.replace tbl pid merged)
      cands;
    List.rev_map (fun pid -> Hashtbl.find tbl pid) !order

  (* descendant-or-self path-index nodes, never descending through
     attributes (the descendant axes are defined over children only) *)
  let rec desc_or_self_pnodes t pn acc =
    List.fold_left
      (fun acc c ->
        match PI.kind c with
        | `Attribute -> acc
        | `Document | `Element | `Text -> desc_or_self_pnodes t c acc)
      (pn :: acc) (PI.children t pn)

  let expand_desc_or_self t c =
    List.map
      (fun pn ->
        if PI.id pn = PI.id c.pn then c
        else { pn; restr = narrow t (Extent.restrict_by_ancestor ~or_self:false) c.restr pn })
      (desc_or_self_pnodes t.pindex c.pn [])

  let child_cands t c test ~attribute =
    PI.children t.pindex c.pn
    |> List.filter (fun pn ->
           (if attribute then PI.kind pn = `Attribute else PI.kind pn <> `Attribute)
           && test_matches test pn)
    |> List.map (fun pn -> { pn; restr = narrow t Extent.restrict_by_parent c.restr pn })

  let descendant_cands t c test ~or_self =
    desc_or_self_pnodes t.pindex c.pn []
    |> List.filter_map (fun pn ->
           let self = PI.id pn = PI.id c.pn in
           if (self && not or_self) || not (test_matches test pn) then None
           else if self then Some c
           else
             Some { pn; restr = narrow t (Extent.restrict_by_ancestor ~or_self:false) c.restr pn })

  (* ---- route pricing (Cost policy) ----

     Strategy choices are made at execution time, when the candidate's
     extent is already restricted by everything to its left — so the
     owner count is exact, not estimated.  What is estimated: the
     target count a value-index build would walk (a structural pnode
     walk of the relative path, ignoring its predicates — an upper
     bound), and the matches a probe would return (from the maintained
     statistics). *)

  exception Unpriceable

  (* one structural step over path-index nodes, ignoring predicates;
     raises [Unpriceable] outside the indexable fragment *)
  let pnodes_step t pns ((step : step), desc_flag) =
    let dedup pns = List.sort_uniq (fun a b -> compare (PI.id a) (PI.id b)) pns in
    let bases =
      if desc_flag then
        dedup (List.concat_map (fun p -> desc_or_self_pnodes t.pindex p []) pns)
      else pns
    in
    dedup
      (List.concat_map
         (fun p ->
           match step.axis with
           | Xsm_xdm.Axis.Child ->
             List.filter
               (fun c -> PI.kind c <> `Attribute && test_matches step.test c)
               (PI.children t.pindex p)
           | Xsm_xdm.Axis.Attribute ->
             List.filter
               (fun c -> PI.kind c = `Attribute && test_matches step.test c)
               (PI.children t.pindex p)
           | Xsm_xdm.Axis.Self -> if test_matches step.test p then [ p ] else []
           | Xsm_xdm.Axis.Descendant | Xsm_xdm.Axis.Descendant_or_self ->
             let or_self = step.axis = Xsm_xdm.Axis.Descendant_or_self in
             List.filter
               (fun c -> (or_self || PI.id c <> PI.id p) && test_matches step.test c)
               (desc_or_self_pnodes t.pindex p [])
           | _ -> raise Unpriceable)
         bases)

  (* the pnodes a relative path can reach, ignoring predicates *)
  let rel_target_pnodes t pn (rel : path) =
    if rel.absolute then None
    else
      match List.fold_left (pnodes_step t) [ pn ] rel.steps with
      | pns -> Some pns
      | exception Unpriceable -> None

  let extent_sum t pns = List.fold_left (fun n p -> n + PI.extent_size t.pindex p) 0 pns

  let structural_rel (rel : path) =
    List.for_all (fun ((s : step), _) -> s.predicates = []) rel.steps

  let drops_of t key = Option.value ~default:0 (Hashtbl.find_opt t.vi_drop_hist key)

  (* residual route: test each remaining owner by navigating the
     relative path from it *)
  let residual_price owners (rel : path) =
    float_of_int owners
    *. (float_of_int (List.length rel.steps) +. 1.)
    *. Plan.Cost.residual

  (* expected matching entries of a value probe, from the maintained
     statistics of a cached index; 0 when nothing is known *)
  let matches_estimator pred (vi : VI.t option) =
    match vi, pred with
    | None, _ -> 0.
    | Some vi, Equals (_, lit) -> float_of_int (VI.count_eq vi lit)
    | Some vi, Cmp (op, _, lit) ->
      let vop =
        match op with
        | Path_ast.Lt -> VI.Lt
        | Path_ast.Le -> VI.Le
        | Path_ast.Gt -> VI.Gt
        | Path_ast.Ge -> VI.Ge
      in
      VI.est_range (VI.summary vi) vop (VI.Key.of_string lit)
    | Some _, _ -> 0.

  (* indexed route of a value predicate: probe the cached index, or
     build it first — amortized over future reuses when its history
     gives no reason to expect another drop, surcharged otherwise *)
  let probe_price t pn (rel : path) ~matches =
    let key = (PI.id pn, Path_ast.to_string rel) in
    match Hashtbl.find_opt t.values key with
    | Some v -> Plan.Cost.probe +. (matches (Some v.vi) *. Plan.Cost.entry)
    | None -> (
      match rel_target_pnodes t pn rel with
      | None -> Float.infinity
      | Some pns ->
        let build = float_of_int (extent_sum t pns) *. Plan.Cost.build in
        let drops = drops_of t key in
        let build =
          if drops = 0 then build /. Plan.Cost.amortize
          else build *. float_of_int (1 + drops)
        in
        build +. Plan.Cost.probe)

  (* indexed route of an existence predicate: structural semi-join on
     the labels; a relative path with inner predicates additionally
     pays the value-index work its recursive planning will do *)
  let semijoin_price t pn (rel : path) ~owners =
    match rel_target_pnodes t pn rel with
    | None -> Float.infinity
    | Some pns ->
      let targets = float_of_int (extent_sum t pns) in
      let base = (targets +. float_of_int owners) *. Plan.Cost.entry in
      if structural_rel rel then base
      else base +. (targets *. Plan.Cost.build /. Plan.Cost.amortize)

  (* pick the indexed route on a tie only while nothing was ever
     dropped: a dropped index is evidence the next drop is coming *)
  let prefer_indexed t key ~indexed ~residual =
    if drops_of t key = 0 then indexed <= residual else indexed < residual

  let record t pred chosen ~indexed ~residual =
    t.decisions <-
      {
        d_pred = Format.asprintf "%a" Path_ast.pp_expr pred;
        d_chosen = chosen;
        d_indexed = indexed;
        d_residual = residual;
      }
      :: t.decisions

  let rec do_step t cands ((step : step), desc_flag) =
    let bases =
      if desc_flag then merge_cands (List.concat_map (expand_desc_or_self t) cands)
      else cands
    in
    let targets =
      List.concat_map
        (fun c ->
          match step.axis with
          | Xsm_xdm.Axis.Child -> child_cands t c step.test ~attribute:false
          | Xsm_xdm.Axis.Attribute -> child_cands t c step.test ~attribute:true
          | Xsm_xdm.Axis.Self -> if test_matches step.test c.pn then [ c ] else []
          | Xsm_xdm.Axis.Descendant -> descendant_cands t c step.test ~or_self:false
          | Xsm_xdm.Axis.Descendant_or_self ->
            descendant_cands t c step.test ~or_self:true
          | (Xsm_xdm.Axis.Parent | Xsm_xdm.Axis.Ancestor | Xsm_xdm.Axis.Ancestor_or_self
            | Xsm_xdm.Axis.Following_sibling | Xsm_xdm.Axis.Preceding_sibling
            | Xsm_xdm.Axis.Following | Xsm_xdm.Axis.Preceding) as axis ->
            raise (Fallback (Xsm_xdm.Axis.to_string axis ^ " axis")))
        bases
    in
    let targets = merge_cands targets in
    List.fold_left
      (fun cs pred -> List.map (fun c -> apply_pred t c pred) cs)
      targets step.predicates

  and apply_pred t c pred =
    match pred with
    | Position _ | Position_cmp _ | Last _ -> raise (Fallback "positional predicate")
    | Exists rel ->
      let owners = Extent.length (cand_extent t c) in
      let indexed = if t.policy = Rule then 0. else semijoin_price t c.pn rel ~owners in
      let residual = residual_price owners rel in
      if
        t.policy = Rule
        || prefer_indexed t (PI.id c.pn, Path_ast.to_string rel) ~indexed ~residual
      then begin
        if t.policy = Cost then record t pred "semijoin" ~indexed ~residual;
        let targets = run_rel t c.pn rel in
        let restr' =
          Extent.semijoin_containing
            ~targets:(List.map (cand_extent t) targets)
            (cand_extent t c)
        in
        { c with restr = Some restr' }
      end
      else begin
        record t pred "residual" ~indexed ~residual;
        residual_filter t c pred
      end
    | Equals (rel, lit) ->
      decide_value t c pred rel (fun () ->
          restrict_probe t c (VI.eq (value_index t c.pn rel) lit))
    | Cmp (op, rel, lit) ->
      let vop =
        match op with
        | Path_ast.Lt -> VI.Lt
        | Path_ast.Le -> VI.Le
        | Path_ast.Gt -> VI.Gt
        | Path_ast.Ge -> VI.Ge
      in
      decide_value t c pred rel (fun () ->
          restrict_probe t c (VI.range (value_index t c.pn rel) vop (VI.Key.of_string lit)))

  and decide_value t c pred rel probe_route =
    if t.policy = Rule then probe_route ()
    else begin
      let owners = Extent.length (cand_extent t c) in
      let indexed = probe_price t c.pn rel ~matches:(matches_estimator pred) in
      let residual = residual_price owners rel in
      if prefer_indexed t (PI.id c.pn, Path_ast.to_string rel) ~indexed ~residual
      then begin
        record t pred "probe" ~indexed ~residual;
        probe_route ()
      end
      else begin
        record t pred "residual" ~indexed ~residual;
        residual_filter t c pred
      end
    end

  (* the residual route: keep exactly the owners the navigational
     evaluator's predicate semantics would keep, by running the
     relative path from each remaining owner *)
  and residual_filter t c pred =
    let keep =
      match pred with
      | Exists rel -> fun (e : N.node Extent.entry) -> E.eval t.backend e.node rel <> []
      | Equals (rel, lit) ->
        fun e ->
          List.exists
            (fun m -> String.equal (N.string_value t.backend m) lit)
            (E.eval t.backend e.node rel)
      | Cmp (op, rel, lit) ->
        let vop =
          match op with
          | Path_ast.Lt -> VI.Lt
          | Path_ast.Le -> VI.Le
          | Path_ast.Gt -> VI.Gt
          | Path_ast.Ge -> VI.Ge
        in
        let probe = VI.Key.of_string lit in
        fun e ->
          List.exists
            (fun m ->
              List.exists
                (fun v -> VI.op_matches vop (VI.Key.of_value v) probe)
                (N.typed_value t.backend m))
            (E.eval t.backend e.node rel)
      | Position _ | Position_cmp _ | Last _ -> assert false
    in
    let ext = cand_extent t c in
    let positions = ref [] and i = ref 0 in
    List.iter
      (fun e ->
        if keep e then positions := !i :: !positions;
        incr i)
      (Extent.entries ext);
    { c with restr = Some (Extent.select ext (List.rev !positions)) }

  and restrict_probe t c owner_labels =
    let sub = Extent.select_by_labels (extent t c.pn) owner_labels in
    { c with restr = Some (match c.restr with None -> sub | Some r -> Extent.inter r sub) }

  and run_rel t pn (rel : path) =
    if rel.absolute then raise (Fallback "absolute predicate path");
    List.fold_left (do_step t) [ { pn; restr = None } ] rel.steps

  (* The typed value index over (owner path, relative value path),
     built on first use from the owner and target extents — each
     target node attaches to its unique owner ancestor by one binary
     search on the labels — then kept current by differential maintenance
     (or dropped for lazy rebuild when it cannot be). *)
  and value_index t pn (rel : path) =
    let key = (PI.id pn, Path_ast.to_string rel) in
    match Hashtbl.find_opt t.values key with
    | Some v -> v.vi
    | None ->
      let owners = extent t pn in
      let targets = run_rel t pn rel in
      let vi = VI.create () in
      List.iter
        (fun tc ->
          List.iter
            (fun (e : N.node Extent.entry) ->
              match Extent.find_ancestor_pos ~or_self:true ~among:owners e.label with
              | None -> ()
              | Some pos ->
                let owner = (Extent.get owners pos).Extent.label in
                let sval = N.string_value t.backend e.node in
                VI.set_target vi ~target:e.label ~owner
                  (List.map
                     (fun v -> (VI.Key.of_value v, sval))
                     (N.typed_value t.backend e.node)))
            (Extent.entries (cand_extent t tc)))
        targets;
      let v_structural =
        List.for_all (fun ((s : step), _) -> s.predicates = []) rel.steps
      in
      let v_targets = Hashtbl.create 8 in
      List.iter (fun c -> Hashtbl.replace v_targets (PI.id c.pn) ()) targets;
      Hashtbl.add t.values key { vi; v_rel = rel; v_targets; v_structural };
      vi

  (* ---- differential maintenance ---- *)

  let vi_iter t f =
    (* snapshot first: [f] may drop entries *)
    List.iter
      (fun (key, v) -> f key v)
      (Hashtbl.fold (fun key v acc -> (key, v) :: acc) t.values [])

  let drop_vi t key =
    if Hashtbl.mem t.values key then begin
      Hashtbl.remove t.values key;
      Counter.cell_incr t.vi_drops;
      let n = Option.value ~default:0 (Hashtbl.find_opt t.vi_drop_hist key) in
      Hashtbl.replace t.vi_drop_hist key (n + 1)
    end

  (* re-read the value entries one target node contributes: its owner
     is its nearest ancestor-or-self on the owner path (none = gone
     entries), its values come from the current store state.  Upkeep
     walks parent links, never an extent: over block storage an
     extent read scans the path's blocks. *)
  let recompute_target t owner_pid v label node =
    let rec owner n =
      match PI.locate t.pindex t.backend n with
      | Some (pn, l) when PI.id pn = owner_pid -> Some l
      | _ -> Option.bind (N.parent t.backend n) owner
    in
    match owner node with
    | None -> VI.remove_target v.vi label
    | Some owner ->
      let sval = N.string_value t.backend node in
      VI.set_target v.vi ~target:label ~owner
        (List.map (fun value -> (VI.Key.of_value value, sval)) (N.typed_value t.backend node))

  (* an edit at or below a node stales every target on the node's
     ancestor-or-self chain: element string values concatenate
     descendant text *)
  let rec refresh_chain t owner_pid v = function
    | None -> ()
    | Some node ->
      (match PI.locate t.pindex t.backend node with
      | Some (pn, label) when Hashtbl.mem v.v_targets (PI.id pn) ->
        recompute_target t owner_pid v label node
      | _ -> ());
      refresh_chain t owner_pid v (N.parent t.backend node)

  let vi_on_added t root added =
    vi_iter t (fun ((owner_pid, _) as key) v ->
        if not v.v_structural then drop_vi t key
        else begin
          List.iter
            (fun (pid, label, node) ->
              if Hashtbl.mem v.v_targets pid then recompute_target t owner_pid v label node)
            added;
          refresh_chain t owner_pid v (N.parent t.backend root)
        end)

  let vi_on_removed t parent removed =
    vi_iter t (fun ((owner_pid, _) as key) v ->
        if not v.v_structural then drop_vi t key
        else begin
          List.iter
            (fun (pid, label) ->
              if Hashtbl.mem v.v_targets pid then VI.remove_target v.vi label)
            removed;
          refresh_chain t owner_pid v parent
        end)

  let vi_on_content t node =
    vi_iter t (fun ((owner_pid, _) as key) v ->
        if not v.v_structural then drop_vi t key else refresh_chain t owner_pid v (Some node))

  (* new pnodes may widen the target pid set a value index was built
     over; recompute it structurally (cheap: the pnode tree alone) and
     drop indexes whose set changed — their entries are incomplete *)
  let revalidate_value_targets t =
    vi_iter t (fun ((owner_pid, _) as key) v ->
        if not v.v_structural then drop_vi t key
        else begin
          let fresh =
            List.map
              (fun c -> PI.id c.pn)
              (run_rel t (PI.pnode t.pindex owner_pid) v.v_rel)
          in
          let same =
            List.length fresh = Hashtbl.length v.v_targets
            && List.for_all (fun pid -> Hashtbl.mem v.v_targets pid) fresh
          in
          if not same then drop_vi t key
        end)

  exception Too_much

  let apply_one t touched budget = function
    | Xsm_schema.Update.Added node -> (
      let added = PI.insert_subtree t.pindex t.backend node in
      touched := !touched + List.length added;
      if !touched > budget then raise Too_much;
      match added with [] -> () | _ -> vi_on_added t node added)
    | Xsm_schema.Update.Removed node -> (
      let parent, removed = PI.remove_subtree t.pindex t.backend node in
      touched := !touched + List.length removed;
      if !touched > budget then raise Too_much;
      match removed with [] -> () | _ -> vi_on_removed t parent removed)
    | Xsm_schema.Update.Content node -> (
      match PI.locate t.pindex t.backend node with
      | None -> ()  (* content of a node outside the indexed tree *)
      | Some _ ->
        incr touched;
        vi_on_content t node)

  let apply_changes t changes =
    let start = Xsm_obs.Clock.now_ns () in
    (if t.is_stale then refresh t
     else
       match changes with
       | [] -> ()
       | changes -> (
         (* the size-ratio heuristic: when a batch touches more than a
            quarter of the indexed entries, differential upkeep costs
            more than the single linear pass of a rebuild — stop and
            rebuild.  Partial application up to that point is harmless:
            the rebuild subsumes it. *)
         let budget = max 8 (PI.entry_count t.pindex / 4) in
         let touched = ref 0 in
         match
           List.iter (fun c -> apply_one t touched budget c) changes;
           let pnodes = PI.pnode_count t.pindex in
           if pnodes > t.pnodes_seen then begin
             revalidate_value_targets t;
             t.pnodes_seen <- pnodes
           end
         with
         | () -> Counter.cell_add t.applied (List.length changes)
         | exception (Too_much | Xsm_index.Path_index.Maintenance_error _) -> refresh t));
    Histogram.observe h_drain (Int64.to_float (Int64.sub (Xsm_obs.Clock.now_ns ()) start))

  let ensure_fresh t = if t.is_stale then refresh t

  let eval_indexed t (p : path) =
    ensure_fresh t;
    if not p.absolute then raise (Fallback "relative path");
    t.decisions <- [];
    match List.fold_left (do_step t) [ { pn = PI.root t.pindex; restr = None } ] p.steps with
    | final ->
      let nodes = Extent.nodes (Extent.merge (List.map (cand_extent t) final)) in
      Hashtbl.clear t.scans;
      nodes
    | exception e ->
      Hashtbl.clear t.scans;
      raise e

  let try_indexed t p =
    match eval_indexed t p with
    | nodes -> Ok nodes
    | exception Fallback reason -> Error reason

  (* ---- the instance-backed cardinality view ----

     Exact extent sizes from the path index, value statistics from the
     cached value indexes: the provider the generic estimator runs
     over when live data is available. *)

  let provider t =
    let rec view parent_rows pn =
      let total = PI.extent_size t.pindex pn in
      let children_of keep =
        lazy
          (PI.children t.pindex pn |> List.filter keep
          |> List.map (view (float_of_int total)))
      in
      let find_vi rel = Hashtbl.find_opt t.values (PI.id pn, rel) in
      {
        Plan.pv_cycle = PI.id pn;
        pv_kind = PI.kind pn;
        pv_name = PI.name pn;
        pv_rows = Plan.exactly total;
        pv_per_parent =
          {
            Plan.lo = 0;
            hi = Some total;
            expect = float_of_int total /. Float.max 1. parent_rows;
          };
        pv_children = children_of (fun c -> PI.kind c <> `Attribute);
        pv_attrs = children_of (fun c -> PI.kind c = `Attribute);
        pv_summary = (fun rel -> Option.map (fun v -> VI.summary v.vi) (find_vi rel));
        pv_count_eq =
          (fun rel lit -> Option.map (fun v -> VI.count_eq v.vi lit) (find_vi rel));
        pv_literal_ok = (fun _ -> None);
      }
    in
    view 1. (PI.root t.pindex)

  let estimate t p = Plan.estimate ~root:(provider t) p

  (* skeleton price of the indexed route: the extents the structural
     moves touch, plus each predicate at its cheaper strategy over
     unrestricted owners — an optimistic bound, matched against the
     navigational price for the whole-query route choice *)
  let indexed_price t (p : path) =
    if not p.absolute then None
    else
      let price_pred pn pred =
        let owners = PI.extent_size t.pindex pn in
        match pred with
        | Position _ | Position_cmp _ | Last _ -> raise Unpriceable
        | Exists rel ->
          Float.min (semijoin_price t pn rel ~owners) (residual_price owners rel)
        | Equals _ | Cmp _ ->
          let rel =
            match pred with Equals (r, _) | Cmp (_, r, _) -> r | _ -> assert false
          in
          Float.min
            (probe_price t pn rel ~matches:(matches_estimator pred))
            (residual_price owners rel)
      in
      match
        List.fold_left
          (fun (pns, cost) ((step : step), _ as s) ->
            let next = pnodes_step t pns s in
            let cost = cost +. (float_of_int (extent_sum t next) *. Plan.Cost.entry) in
            let cost =
              List.fold_left
                (fun cost pred ->
                  List.fold_left (fun c pn -> c +. price_pred pn pred) cost next)
                cost step.predicates
            in
            (next, cost))
          ([ PI.root t.pindex ], 0.)
          p.steps
      with
      | _, cost -> Some cost
      | exception Unpriceable -> None

  (* Whole-query route choice under the cost policy: price the indexed
     skeleton against the navigational evaluation and keep the
     cheaper.  Returns the prices for [explain]. *)
  let choose_route t (p : path) =
    if t.policy = Cost && p.absolute then begin
      ensure_fresh t;
      match indexed_price t p with
      | Some ip ->
        let ep = Plan.Cost.eval_cost ~root:(provider t) p in
        if ep < ip then
          `Eval (Printf.sprintf "cost: navigation %.0f < indexed %.0f" ep ip, Some (ip, ep))
        else `Indexed (Some (ip, ep))
      | None -> `Indexed None
    end
    else `Indexed None

  let set_digest_sink t sink = t.digest_sink <- sink

  (* what one evaluation looked like: to the digest sink, and to [seen]
     for a caller that prints its plan *)
  let emit_digest t ?seen ~route ~reason ~query p' nodes =
    (match seen with Some s -> s := Some (route, reason, p') | None -> ());
    match t.digest_sink with
    | None -> ()
    | Some sink ->
      sink
        {
          dg_query = Lazy.force query;
          dg_route = route;
          dg_reason = reason;
          dg_actual = List.length nodes;
          dg_estimate =
            (fun () ->
              match estimate t p' with e -> Some e | exception _ -> None);
        }

  let eval_seen t ?context ?seen p =
    let query = lazy (Path_ast.to_string p) in
    let p = rewrite t ?context p in
    match prune_reason t ?context p with
    | Some reason ->
      (* provably empty: answer without touching indexes or extents *)
      Counter.cell_incr t.pruned;
      emit_digest t ?seen ~route:"pruned" ~reason ~query p [];
      []
    | None -> (
      let fallback reason =
        Counter.incr m_fallbacks;
        let nodes =
          Trace.with_span ~attrs:[ ("reason", reason) ] "plan.fallback" (fun () ->
              E.eval t.backend (Option.value context ~default:t.root) p)
        in
        emit_digest t ?seen ~route:"fallback" ~reason ~query p nodes;
        nodes
      in
      match choose_route t p with
      | `Eval (reason, _) -> fallback reason
      | `Indexed _ -> (
        match Trace.with_span "plan.index" (fun () -> try_indexed t p) with
        | Ok nodes ->
          Counter.incr m_index_hits;
          emit_digest t ?seen ~route:"index" ~reason:"" ~query p nodes;
          nodes
        | Error reason -> fallback reason))

  let eval t ?context p = eval_seen t ?context p

  (* the plan line of a route, as a digest names it, over the
     rewritten path: the index route's after its evaluation *)
  let plan_line t ~route ~reason p nodes =
    match route with
    | "pruned" -> Printf.sprintf "pruned(%s)" reason
    | "fallback" -> Printf.sprintf "fallback(%s)" reason
    | _ ->
      let e = estimate t p in
      Format.asprintf "index(%d nodes; est %s; %a; %d value indexes; epoch %d)"
        (List.length nodes)
        (Plan.to_string e.Plan.e_rows)
        PI.pp_stats t.pindex (value_index_count t)
        (Counter.cell_value t.epoch)

  let eval_explained t ?context p =
    let seen = ref None in
    let nodes = eval_seen t ?context ~seen p in
    match !seen with
    | Some (route, reason, p) -> (nodes, plan_line t ~route ~reason p nodes)
    | None -> assert false (* every route emits its digest *)

  let eval_string t ?context text =
    match Path_parser.parse text with
    | Ok p -> Ok (eval t ?context p)
    | Error e -> Error e

  let uses_index t p = Result.is_ok (try_indexed t p)

  let explain t p =
    let p = rewrite t p in
    match prune_reason t p with
    | Some reason -> plan_line t ~route:"pruned" ~reason p []
    | None -> (
      match choose_route t p with
      | `Eval (reason, _) -> plan_line t ~route:"fallback" ~reason p []
      | `Indexed _ -> (
        match try_indexed t p with
        | Ok nodes -> plan_line t ~route:"index" ~reason:"" p nodes
        | Error reason -> plan_line t ~route:"fallback" ~reason p []))

  let decision_to_json (d : decision) =
    Xsm_obs.Json.Obj
      [
        ("pred", Xsm_obs.Json.Str d.d_pred);
        ("chosen", Xsm_obs.Json.Str d.d_chosen);
        ("indexed_cost", Xsm_obs.Json.Num d.d_indexed);
        ("residual_cost", Xsm_obs.Json.Num d.d_residual);
      ]

  (* Structured explain: the chosen route, the estimate with per-step
     annotations, the actual row count, the estimate error, and the
     strategy decisions the plan made. *)
  let explain_json t p =
    let module J = Xsm_obs.Json in
    let p' = rewrite t p in
    let ms = maintenance_stats t in
    let maintenance =
      J.Obj
        [
          ("epochs", J.int ms.epochs);
          ("applied", J.int ms.applied);
          ("vi_drops", J.int ms.vi_drops);
        ]
    in
    let route_costs = function
      | None -> []
      | Some (ip, ep) ->
        [ ("indexed_cost", J.Num ip); ("eval_cost", J.Num ep) ]
    in
    let est_fields (e : Plan.estimate) actual =
      [
        ("actual_rows", J.int actual);
        ("est", Plan.est_to_json e.Plan.e_rows);
        ("est_rows", J.Num e.Plan.e_rows.Plan.expect);
        ("in_interval", J.Bool (Plan.contains e.Plan.e_rows actual));
        ("abs_error",
         J.Num (Float.abs (e.Plan.e_rows.Plan.expect -. float_of_int actual)));
        ("estimate", Plan.estimate_to_json e);
      ]
    in
    let base route reason fields =
      J.Obj
        ([ ("query", J.Str (Path_ast.to_string p)); ("route", J.Str route) ]
        @ (if Path_ast.to_string p' <> Path_ast.to_string p then
             [ ("rewritten", J.Str (Path_ast.to_string p')) ]
           else [])
        @ (match reason with None -> [] | Some r -> [ ("reason", J.Str r) ])
        @ fields
        @ [ ("maintenance", maintenance) ])
    in
    match prune_reason t p' with
    | Some reason -> base "pruned" (Some reason) [ ("actual_rows", J.int 0) ]
    | None -> (
      match choose_route t p' with
      | `Eval (reason, costs) ->
        let actual = List.length (E.eval t.backend t.root p') in
        let e = estimate t p' in
        base "fallback" (Some reason) (est_fields e actual @ route_costs costs)
      | `Indexed costs -> (
        match try_indexed t p' with
        | Ok nodes ->
          let e = estimate t p' in
          base "index" None
            (est_fields e (List.length nodes)
            @ route_costs costs
            @ [
                ("value_indexes", J.int (value_index_count t));
                ("decisions", J.Arr (List.rev_map decision_to_json t.decisions));
              ])
        | Error reason ->
          let actual = List.length (E.eval t.backend t.root p') in
          let e = estimate t p' in
          base "fallback" (Some reason) (est_fields e actual @ route_costs costs)))
end

module Over_store = Make (Navigator.Xdm) (Xsm_index.Path_index.Make (Navigator.Xdm))
module Over_storage = Make (Navigator.Storage) (Storage_guide)
