module Stab = Oracles.Stabilization

type verdict = Stab.verdict =
  | Clean
  | Violation of { kind : string; count : int; detail : string }

let pp_verdict = Stab.pp_verdict

(* ------------------------------------------------------------------ *)
(* Terminal-state oracle                                              *)

let terminal_verdict sys =
  let cfg = Sys.config sys in
  let condition =
    match (cfg.Config.family, cfg.Config.oracle) with
    | Config.Regular, Config.Atomic_oracle -> Stab.Sw_atomic
    | family, (Config.Family_default | Config.Atomic_oracle) ->
      Stab.condition_of_family family
  in
  Stab.check ~stuck:(Sys.stuck sys) condition ~points:(Sys.corrupt_times sys)
    (Sys.history sys)

(* ------------------------------------------------------------------ *)
(* Search                                                             *)

type reduction = No_reduction | Sleep_sets

let reduction_to_string = function
  | No_reduction -> "none"
  | Sleep_sets -> "sleep-sets"

type budgets = { max_states : int; max_depth : int }

let default_budgets = { max_states = 2_000_000; max_depth = 10_000 }

type stats = {
  mutable states : int;  (** nodes expanded *)
  mutable transitions : int;
  mutable terminals : int;
  mutable revisits : int;  (** pruned by the visited set *)
  mutable sleep_skips : int;  (** moves skipped by sleep sets *)
  mutable sym_skips : int;  (** moves skipped as symmetric to a sibling *)
  mutable replays : int;
      (** schedules re-executed from the initial state: 1 for a guided
          run, 0 for a search, which clones states instead *)
  mutable off_target : int;  (** violations ignored by a [target] filter *)
  mutable fp_collisions : int;
      (** keys stored beside a resident key with the same first word *)
  mutable peak_visited : int;
  mutable max_depth_seen : int;
  mutable truncated : bool;  (** some budget cut the search *)
}

let fresh_stats () =
  {
    states = 0;
    transitions = 0;
    terminals = 0;
    revisits = 0;
    sleep_skips = 0;
    sym_skips = 0;
    replays = 0;
    off_target = 0;
    fp_collisions = 0;
    peak_visited = 0;
    max_depth_seen = 0;
    truncated = false;
  }

type outcome = {
  verdict : verdict;
  exhaustive : bool;
      (** [true] iff no state/depth budget truncated the search: a [Clean]
          exhaustive outcome is a proof over the bounded configuration *)
  stats : stats;
  trace : Sys.move list option;  (** violating trace, execution order *)
}

(* A violation the search hunts, and the codes of its path, newest
   first. *)
exception Found of int list * verdict

exception Out_of_states

(* Everything a search shares, sequential or cooperative — each piece
   either immutable or internally synchronized (the sharded visited set,
   the atomic admission counter), so frontier workers never hold a lock
   and never mutate a captured structure themselves.  Per-worker
   counters live in a [stats] passed beside it. *)
type ctx = {
  cfg : Config.t;
  budgets : budgets;
  reduction : reduction;
  use_visited : bool;
  (* [Some rng]: shuffle sibling order at every node (deterministically,
     from the seed), so a bug hunt under a state budget reaches different
     corners first.  While the search key can merge states whose futures
     differ, the states explored can also depend on the order (ROADMAP,
     "Make the search key sound").  Sequential search only: a
     [Random.State.t] is not shared across domains. *)
  rng : Random.State.t option;
  (* Violations whose kind the caller is not hunting are recorded in the
     stats but do not stop the search. *)
  keep : verdict -> bool;
  (* The visited set, keyed by {!Sys.search_key} (never by the MD5
     digest, which only artifacts record).

     Value: the residual sleep set, as a bitset over the canonical links
     (a raw link code renamed by {!Sys.rename_link} through the key's
     renaming) — the enabled moves no visit has explored from this state
     yet.  A sleep set only ever holds deliveries ({!Sys.independent}
     relates nothing else), so its bits fit a width fixed per search.
     The first visit stores its arrival sleep (it explores everything
     else); a revisit with sleep [s] only needs the residual minus [s] —
     every other move was either explored by an earlier visit or is
     covered by a sibling of the current path — and afterwards the
     residual shrinks to its intersection with [s] (Godefroid's sleep
     sets combined with state matching).  A revisit with an empty
     difference is pruned outright, which subsumes the classic "some
     stored sleep is a subset of ours" condition.  The lookup and the
     write-back happen atomically under the state's shard lock
     ({!Parallel.Pool.Visited.arrive}), which keeps the combination
     exactly as sound across domains as on one. *)
  visited : Parallel.Pool.Visited.t;
  (* Nodes that have asked the state budget for admission. *)
  admitted : int Atomic.t;
  links : int;  (* {!Sys.links}: the codes below it are deliveries *)
  width : int;  (* words in a sleep set *)
  (* Link [l]'s independence mask at [l × width]: the links whose
     deliveries commute with its own. *)
  masks : int array;
}

(* A sleep set's bits, [bits_per_word] to an int. *)
let bits_per_word = 63

let mem_at bits at i = (bits.(at + (i / bits_per_word)) lsr (i mod bits_per_word)) land 1 = 1

let mem bits i = mem_at bits 0 i

let add_at bits at i =
  let w = at + (i / bits_per_word) in
  bits.(w) <- bits.(w) lor (1 lsl (i mod bits_per_word))

let add bits i = add_at bits 0 i

let clear bits =
  for w = 0 to Array.length bits - 1 do
    bits.(w) <- 0
  done

let words_for links = (links + bits_per_word - 1) / bits_per_word

let independence_masks cfg =
  let links = Sys.links cfg in
  let width = words_for links in
  let masks = Array.make (links * width) 0 in
  for a = 0 to links - 1 do
    for b = 0 to links - 1 do
      if Sys.independent cfg a b then add_at masks (a * width) b
    done
  done;
  masks

let make_ctx ?(budgets = default_budgets) ?(reduction = Sleep_sets)
    ?(use_visited = true) ?seed ?target ~shards cfg =
  let links = Sys.links cfg in
  let width = words_for links in
  {
    cfg;
    budgets;
    reduction;
    use_visited;
    rng = Option.map (fun s -> Random.State.make [| s |]) seed;
    keep =
      (match target with
      | None -> fun _ -> true
      | Some kind -> fun v -> String.equal (Stab.verdict_kind v) kind);
    visited = Parallel.Pool.Visited.create ~shards ~width ();
    admitted = Atomic.make 0;
    links;
    width;
    masks = independence_masks cfg;
  }

(* The children of one expanded node: [menu] holds their move codes, in
   exploration order, and child [i] arrives with the sleep set at
   [i × width] of [sleeps]. *)
type level = { menu : Sys.codes; mutable sleeps : int array }

(* What one searcher — the sequential search, or one frontier worker —
   expands nodes with, written afresh at every node and owned by that
   searcher alone: the keying buffers, the arrival sleep set in canonical
   coordinates, the visited set's residual, the sleep set the children
   inherit, the symmetry classes already branched on, and one [level]
   per depth of the path being explored. *)
type scratch = {
  keys : Sys.scratch;
  arrival : int array;
  residual : int array;
  inherited : int array;
  seen : int array;
  mutable levels : level array;
}

let scratch ctx =
  let width () = Array.make ctx.width 0 in
  {
    keys = Sys.scratch ctx.cfg;
    arrival = width ();
    residual = width ();
    inherited = width ();
    seen = width ();
    levels = [||];
  }

(* The searcher's level for [depth], made on first use. *)
let level sc depth =
  let have = Array.length sc.levels in
  if depth >= have then
    sc.levels <-
      Array.init (Int.max 16 (2 * (depth + 1))) (fun d ->
          if d < have then sc.levels.(d) else { menu = Sys.codes (); sleeps = [||] });
  sc.levels.(depth)

(* A trace coming in — a guide's schedule, or the violating trace a run
   is packaged from — as codes.  A move the deployment lacks (a link to a
   server it does not have, a menu item past its menu) reads [-1], which
   fires in no state. *)
let codes_of cfg trace = List.map (Sys.code_of_move cfg) trace

(* Codes in execution order as the moves of a trace going out. *)
let trace_of cfg codes = List.map (Sys.move_of_code cfg) codes

(* The state [codes] reach from the initial one — how a packaged trace
   is re-executed for its digest; the search itself clones states.
   Raises [Invalid_argument] (the strict {!Sys.apply}) if one does not
   fire. *)
let replay_prefix cfg codes =
  let sys = Sys.create cfg in
  List.iter (fun c -> ignore (Sys.apply sys c)) codes;
  sys

(* The visited-set facts of a stats record are global table facts, not
   per-worker sums: [peak_visited] is the number of unique states
   resident in the set (it never shrinks). *)
let record_table ctx stats =
  stats.peak_visited <- Parallel.Pool.Visited.length ctx.visited;
  stats.fp_collisions <- Parallel.Pool.Visited.collisions ctx.visited

(* One flight-recorder snapshot: the full stats record plus the live
   frontier depth and visited-set occupancy at the sampled state. *)
let profile_fields s ~depth =
  [
    ("states", Obs.Json.Int s.states);
    ("transitions", Obs.Json.Int s.transitions);
    ("depth", Obs.Json.Int depth);
    ("max_depth", Obs.Json.Int s.max_depth_seen);
    ("visited", Obs.Json.Int s.peak_visited);
    ("revisits", Obs.Json.Int s.revisits);
    ("sleep_skips", Obs.Json.Int s.sleep_skips);
    ("sym_skips", Obs.Json.Int s.sym_skips);
    ("fp_collisions", Obs.Json.Int s.fp_collisions);
    ("replays", Obs.Json.Int s.replays);
    ("terminals", Obs.Json.Int s.terminals);
  ]

(* Whether [rep] maps some slot [s] or below to another one: the state
   has servers the key found interchangeable. *)
let rec tied rep s = s >= 0 && (rep s <> s || tied rep (s - 1))

let rec empty bits w = w < 0 || (bits.(w) = 0 && empty bits (w - 1))

(* The expansion plan for a state arrival: explore every non-slept move
   (first visit), only the canonical links set in the residual
   ([residual] of the searcher's scratch; revisit with a non-empty
   residual), or nothing (revisit already covered). *)
type expansion = Expand_all | Expand_only | Covered

(* Look the state up and write back its new residual as one atomic step
   under its shard lock; an arrival at a known state counts as a
   revisit.  The arrival sleep set ([width] words of [sleep] from [at],
   raw links) is renamed into the key's coordinates bit by bit. *)
let plan ctx sc stats ~k1 ~k2 ren sleep ~at =
  if not ctx.use_visited then Expand_all
  else begin
    let bits = sc.arrival in
    clear bits;
    for w = 0 to ctx.width - 1 do
      let x = ref sleep.(at + w) and l = ref (w * bits_per_word) in
      while !x <> 0 do
        if !x land 1 = 1 then add bits (Sys.rename_link ctx.cfg ren !l);
        x := !x lsr 1;
        incr l
      done
    done;
    if Parallel.Pool.Visited.arrive ctx.visited ~k1 ~k2 bits ~outside:sc.residual then begin
      stats.revisits <- stats.revisits + 1;
      if empty sc.residual (ctx.width - 1) then Covered else Expand_only
    end
    else Expand_all
  end

(* What one node expansion hands its driver. *)
type step =
  | Out_of_budget  (** the state budget is spent: stop the search *)
  | Violating of verdict  (** a terminal violation the caller hunts *)
  | Leaf
      (** nothing to explore: a clean or off-target terminal, a depth cut
          or an already-covered revisit *)
  | Children of level
      (** the moves to explore, in order, each with the sleep set its
          child arrives with: the searcher's level for this depth *)

(* The one expansion step both drivers share: admit the node under the
   state budget, count it into [stats] ([sample] sees it right after),
   judge a terminal, cut at the depth budget, plan the node against the
   visited set, prune symmetric moves, and compute every child's sleep
   set.  The node arrives with the sleep set at [at] in [sleep].  Only
   how the children are scheduled — and so when a clone or a transition
   is paid — is left to the driver.

   The moves are the codes {!Sys.enabled_codes} writes into this depth's
   level, filtered in place: a delivery is its raw link, so no move is
   built or decoded and no client is looked up. *)
let expand ctx sc stats ~sample sys ~depth ~sleep ~at =
  if Atomic.fetch_and_add ctx.admitted 1 >= ctx.budgets.max_states then begin
    stats.truncated <- true;
    Out_of_budget
  end
  else begin
    stats.states <- stats.states + 1;
    if depth > stats.max_depth_seen then stats.max_depth_seen <- depth;
    sample depth;
    if Sys.terminal sys then begin
      stats.terminals <- stats.terminals + 1;
      match terminal_verdict sys with
      | Clean -> Leaf
      | Violation _ as v when ctx.keep v -> Violating v
      | Violation _ ->
        stats.off_target <- stats.off_target + 1;
        Leaf
    end
    else if depth >= ctx.budgets.max_depth then begin
      stats.truncated <- true;
      Leaf
    end
    else begin
      (* Sleep sets are compared across states the key merged, and the
         key canonicalizes server identities (symmetry reduction) — so
         the comparison must happen in the same canonical coordinates,
         via the renaming the key chose. *)
      let need_rep = match ctx.reduction with Sleep_sets -> true | No_reduction -> false in
      let k1, k2, ren, rep =
        if ctx.use_visited || need_rep then Sys.search_key sc.keys sys
        else (0, 0, Fun.id, Fun.id)
      in
      match plan ctx sc stats ~k1 ~k2 ren sleep ~at with
      | Covered -> Leaf
      | (Expand_all | Expand_only) as plan ->
        (* The menu is built only here, for a node that branches. *)
        let lv = level sc depth in
        Sys.enabled_codes sys lv.menu;
        let codes = lv.menu.buf and links = ctx.links and width = ctx.width in
        (* Each filter below keeps its survivors in order at the front
           of [codes], [kept] of them. *)
        let kept = ref 0 in
        (* Symmetric-move pruning: deliveries aimed at servers of the
           same automorphism class have isomorphic successors; keep one
           per class.  Without ties every class has one member. *)
        if need_rep && tied rep (ctx.cfg.n - 1) then begin
          let seen = sc.seen in
          clear seen;
          for i = 0 to lv.menu.len - 1 do
            let c = codes.(i) in
            let r = if c < links then Sys.rename_link ctx.cfg rep c else -1 in
            if r >= 0 && mem seen r then stats.sym_skips <- stats.sym_skips + 1
            else begin
              if r >= 0 then add seen r;
              codes.(!kept) <- c;
              incr kept
            end
          done;
          lv.menu.len <- !kept
        end;
        (* The children inherit the arrival sleep set and, on a partial
           re-expansion, the moves outside the residual: those were
           explored from this state by an earlier visit; they are exactly
           as covered as a slept move, and they must sleep (not vanish)
           so the children explored now inherit them through the
           independence filter. *)
        let inherited = sc.inherited in
        for w = 0 to width - 1 do
          inherited.(w) <- sleep.(at + w)
        done;
        (match plan with
        | Expand_all | Covered -> ()
        | Expand_only ->
          kept := 0;
          for i = 0 to lv.menu.len - 1 do
            let c = codes.(i) in
            if c < links && mem sc.residual (Sys.rename_link ctx.cfg ren c) then begin
              codes.(!kept) <- c;
              incr kept
            end
            else begin
              stats.sleep_skips <- stats.sleep_skips + 1;
              if c < links then add inherited c
            end
          done;
          lv.menu.len <- !kept);
        (* A seeded Fisher–Yates shuffle in place: its draws decide the
           seeded searches' child order, which the stats goldens pin. *)
        (match ctx.rng with
        | None -> ()
        | Some st ->
          for i = lv.menu.len - 1 downto 1 do
            let j = Random.State.int st (i + 1) in
            let c = codes.(i) in
            codes.(i) <- codes.(j);
            codes.(j) <- c
          done);
        (* Enabled moves are distinct, so exploring a sibling can never
           put a later *candidate* to sleep — only child sleeps grow as
           siblings are explored — and the whole child list is known up
           front.  No candidate is covered, so only the arrival sleep
           can skip one. *)
        kept := 0;
        for i = 0 to lv.menu.len - 1 do
          let c = codes.(i) in
          if c < links && mem_at sleep at c then stats.sleep_skips <- stats.sleep_skips + 1
          else begin
            codes.(!kept) <- c;
            incr kept
          end
        done;
        lv.menu.len <- !kept;
        (* Child [i] sleeps on the covered and inherited sleeps plus the
           siblings ordered before it, each kept only if independent of
           its own move. *)
        let count = lv.menu.len in
        if Array.length lv.sleeps < count * width then
          lv.sleeps <- Array.make (2 * count * width) 0;
        let sleeps = lv.sleeps in
        for i = 0 to count - 1 do
          let c = codes.(i) and off = i * width in
          match ctx.reduction with
          | Sleep_sets when c < links ->
            for w = 0 to width - 1 do
              sleeps.(off + w) <- inherited.(w) land ctx.masks.((c * width) + w)
            done;
            add inherited c
          | Sleep_sets | No_reduction ->
            for w = 0 to width - 1 do
              sleeps.(off + w) <- 0
            done
        done;
        if count = 0 then Leaf else Children lv
    end
  end

(* The sequential DFS.  Each node keeps its own live state for the LAST
   child: earlier children run on clones while the entry state waits
   untouched, and the final child consumes it.  Each node pays exactly
   [children - 1] clones, and no clone is ever taken of a state a child
   already changed. *)
let rec explore ctx sc stats ~sample sys ~prefix_rev ~depth ~sleep ~at =
  match expand ctx sc stats ~sample sys ~depth ~sleep ~at with
  | Out_of_budget -> raise Out_of_states
  | Violating v -> raise (Found (prefix_rev, v))
  | Leaf -> ()
  | Children lv ->
    let last = lv.menu.len - 1 in
    for i = 0 to last do
      let c = lv.menu.buf.(i) in
      let sys = if i < last then Sys.clone sys else sys in
      ignore (Sys.apply sys c);
      stats.transitions <- stats.transitions + 1;
      explore ctx sc stats ~sample sys ~prefix_rev:(c :: prefix_rev)
        ~depth:(depth + 1) ~sleep:lv.sleeps ~at:(i * ctx.width)
    done

let search ?budgets ?reduction ?use_visited ?seed ?target ?recorder
    (cfg : Config.t) =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error e -> invalid_arg ("Mc.Checker.search: " ^ e));
  (* One shard: the sequential search never contends, and each shard
     preallocates its table. *)
  let ctx =
    make_ctx ?budgets ?reduction ?use_visited ?seed ?target ~shards:1 cfg
  in
  let stats = fresh_stats () in
  (* Flight recorder, sampled on the deterministic state counter. *)
  let sample ~force depth =
    match recorder with
    | None -> ()
    | Some r ->
      Obs.Profile.sample ~force r ~tick:stats.states (fun () ->
          record_table ctx stats;
          profile_fields stats ~depth)
  in
  let verdict, trace =
    match
      explore ctx (scratch ctx) stats ~sample:(sample ~force:false) (Sys.create cfg)
        ~prefix_rev:[] ~depth:0 ~sleep:(Array.make ctx.width 0) ~at:0
    with
    | () | (exception Out_of_states) -> (Clean, None)
    | exception Found (prefix_rev, v) -> (v, Some (trace_of cfg (List.rev prefix_rev)))
  in
  record_table ctx stats;
  sample ~force:true stats.max_depth_seen;
  {
    verdict;
    exhaustive = Option.is_none trace && not stats.truncated;
    stats;
    trace;
  }

(* ------------------------------------------------------------------ *)
(* Cooperative frontier search                                        *)

(* Outcomes are plain data (constructors, ints, bools, move lists), so
   structural equality is a faithful bit-identity check for the race
   harness. *)
let outcome_equal (a : outcome) (b : outcome) = a = b

(* A unit of work: a DFS node as its frozen parent state and the code
   of the move that leaves it ([-1] for the root, whose state is its
   own), with the sleep set it arrived with (its own copy) and its depth.
   No task carries its schedule: a frontier never reports one (a trace
   is re-derived by the sequential search).
   The frozen state is shared by every sibling task and never changed: a
   worker clones it before applying the move.  Thieves steal the
   *oldest* (shallowest) task: the biggest outstanding subtree. *)
type task = {
  t_parent : Sys.t;
  t_move : int;
  t_sleep : int array;
  t_depth : int;
}

(* How many independently-locked shards the cooperative visited set
   uses: enough that workers rarely collide on a shard lock, few enough
   that the fixed cost stays trivial. *)
let frontier_shards = 64

(* What a worker sends back, by value, through the join. *)
type worker_report = {
  wr_stats : stats;
  wr_violated : bool;  (** the worker reached a violation it hunts *)
  wr_samples : Obs.Json.t list;
}

let frontier_worker ctx frontier recorder w =
  let stats = fresh_stats () in
  let sc = scratch ctx in
  let violated = ref false in
  (* Branched off the parent recorder *inside* the worker: recorders are
     single-domain mutable state, so each domain owns its branch and
     returns the samples by value. *)
  let branch = Option.map Obs.Profile.branch recorder in
  let sample ~force depth =
    match branch with
    | None -> ()
    | Some r ->
      Obs.Profile.sample ~force r ~tick:stats.states (fun () ->
          [
            ("worker", Obs.Json.Int w);
            ("states", Obs.Json.Int stats.states);
            ("transitions", Obs.Json.Int stats.transitions);
            ("depth", Obs.Json.Int depth);
            ("max_depth", Obs.Json.Int stats.max_depth_seen);
            ("revisits", Obs.Json.Int stats.revisits);
            ("sleep_skips", Obs.Json.Int stats.sleep_skips);
            ("sym_skips", Obs.Json.Int stats.sym_skips);
            ("replays", Obs.Json.Int stats.replays);
            ("terminals", Obs.Json.Int stats.terminals);
          ])
  in
  (* Expand the node the live [sys] currently sits on, descending into
     its first child in place — the sequential explorer's last-child
     reuse at the other end of the sibling list — and pushing the later
     siblings as stealable tasks over one frozen copy of the node. *)
  let rec descend sys depth sleep at =
    if not (Parallel.Pool.Frontier.stopped frontier) then
      match
        expand ctx sc stats ~sample:(sample ~force:false) sys ~depth ~sleep ~at
      with
      | Out_of_budget -> Parallel.Pool.Frontier.stop frontier
      | Violating _ ->
        violated := true;
        (* Early exit: the reported counterexample is re-derived
           sequentially anyway, so there is nothing deterministic left
           for the other workers to add. *)
        Parallel.Pool.Frontier.stop frontier
      | Leaf -> ()
      | Children lv ->
        let count = lv.menu.len and width = ctx.width in
        stats.transitions <- stats.transitions + count;
        (* Pushed in reverse so the owner's LIFO pop recovers
           left-to-right sibling order, while thieves take the oldest
           end. *)
        if count > 1 then begin
          let frozen = Sys.clone sys in
          for i = count - 1 downto 1 do
            let c = lv.menu.buf.(i) in
            Parallel.Pool.Frontier.push frontier ~worker:w
              {
                t_parent = frozen;
                t_move = c;
                t_sleep = Array.sub lv.sleeps (i * width) width;
                t_depth = depth + 1;
              }
          done
        end;
        ignore (Sys.apply sys lv.menu.buf.(0));
        descend sys (depth + 1) lv.sleeps 0
  in
  let process t =
    let sys =
      if t.t_move < 0 then t.t_parent
      else begin
        let sys = Sys.clone t.t_parent in
        ignore (Sys.apply sys t.t_move);
        sys
      end
    in
    descend sys t.t_depth t.t_sleep 0
  in
  let rec loop () =
    match Parallel.Pool.Frontier.take frontier ~worker:w with
    | `Done -> ()
    | `Retry ->
      Domain.cpu_relax ();
      loop ()
    | `Task t ->
      process t;
      Parallel.Pool.Frontier.finish frontier ~worker:w;
      loop ()
  in
  loop ();
  sample ~force:true stats.max_depth_seen;
  {
    wr_stats = stats;
    wr_violated = !violated;
    wr_samples =
      (match branch with
      | None -> []
      | Some r -> Obs.Profile.sample_jsons r);
  }

type frontier_pass = {
  fp_agg : stats;
  fp_violated : bool;  (** some worker reached a violation it hunts *)
  fp_reports : worker_report list;
  fp_steals : int array;
}

(* One cooperative pass over the state space: seed the frontier with the
   root, scatter the workers, merge their reports. *)
let frontier_pass ?budgets ?reduction ?use_visited ?target ~recorder
    ~reverse_steal ~domains cfg =
  let ctx =
    make_ctx ?budgets ?reduction ?use_visited ?target ~shards:frontier_shards
      cfg
  in
  let frontier =
    Parallel.Pool.Frontier.create ~reverse_steal ~workers:domains ()
  in
  Parallel.Pool.Frontier.push frontier ~worker:0
    {
      t_parent = Sys.create cfg;
      t_move = -1;
      t_sleep = Array.make ctx.width 0;
      t_depth = 0;
    };
  let reports =
    Parallel.Pool.scatter ~domains (fun w ->
        frontier_worker ctx frontier recorder w)
  in
  let agg = fresh_stats () in
  List.iter
    (fun r ->
      let s = r.wr_stats in
      agg.states <- agg.states + s.states;
      agg.transitions <- agg.transitions + s.transitions;
      agg.terminals <- agg.terminals + s.terminals;
      agg.revisits <- agg.revisits + s.revisits;
      agg.sleep_skips <- agg.sleep_skips + s.sleep_skips;
      agg.sym_skips <- agg.sym_skips + s.sym_skips;
      agg.replays <- agg.replays + s.replays;
      agg.off_target <- agg.off_target + s.off_target;
      agg.truncated <- agg.truncated || s.truncated;
      if s.max_depth_seen > agg.max_depth_seen then
        agg.max_depth_seen <- s.max_depth_seen)
    reports;
  record_table ctx agg;
  {
    fp_agg = agg;
    fp_violated = List.exists (fun r -> r.wr_violated) reports;
    fp_reports = reports;
    fp_steals = Parallel.Pool.Frontier.steals frontier;
  }

(* The schedule-independent projection of an outcome: what the race
   harness compares between the normal and inverted-stealing passes. *)
let projection_equal (a : outcome) (b : outcome) =
  Stab.verdict_equal a.verdict b.verdict
  && Bool.equal a.exhaustive b.exhaustive
  && Option.equal (List.equal Sys.move_equal) a.trace b.trace

let search_parallel ?budgets ?reduction ?use_visited ?seed ?target ?recorder
    ?(race_check = false) ?(domains = 1) cfg =
  if domains < 1 then
    invalid_arg "Mc.Checker.search_parallel: domains must be >= 1";
  (match Config.validate cfg with
  | Ok () -> ()
  | Error e -> invalid_arg ("Mc.Checker.search_parallel: " ^ e));
  if domains = 1 then begin
    (* Exactly the sequential searcher — byte-for-byte, including stats.
       Under [race_check] it runs twice (the second time without the
       recorder) and any structural difference — which can only come
       from hidden global state — trips the harness. *)
    let first =
      search ?budgets ?reduction ?use_visited ?seed ?target ?recorder cfg
    in
    if race_check then begin
      let second = search ?budgets ?reduction ?use_visited ?seed ?target cfg in
      if not (outcome_equal first second) then
        raise (Parallel.Pool.Nondeterministic 0)
    end;
    first
  end
  else begin
    let run ~reverse_steal ~recorder =
      frontier_pass ?budgets ?reduction ?use_visited ?target ~recorder
        ~reverse_steal ~domains cfg
    in
    (* The cooperative pass covers the reduced space once, shared.  Its
       verdict classification is deterministic; the concrete schedule
       that first reaches a fingerprint-merged state is not, so whenever
       a trace (or a truncation that could hide one) is involved, the
       *reported* outcome is re-derived by the canonical sequential
       search — bit-identical to [search] by construction, budget-bounded
       by the same limits, and in the common case (a violating config)
       reached after the frontier has already stopped early. *)
    let report_of pass =
      match (pass.fp_violated, pass.fp_agg.truncated) with
      | false, false ->
        (* Exhaustive and clean: every state of the reduced space was
           expanded with no budget cut, which is the same proof the
           sequential searcher produces — no re-derivation needed. *)
        ( {
            verdict = Clean;
            exhaustive = true;
            stats = pass.fp_agg;
            trace = None;
          },
          false )
      | _ ->
        (search ?budgets ?reduction ?use_visited ?seed ?target cfg, true)
    in
    let pass1 = run ~reverse_steal:false ~recorder in
    let outcome1, rederived = report_of pass1 in
    if race_check then begin
      let pass2 = run ~reverse_steal:true ~recorder:None in
      let outcome2, _ = report_of pass2 in
      if not (projection_equal outcome1 outcome2) then
        raise (Parallel.Pool.Nondeterministic 0)
    end;
    (match recorder with
    | None -> ()
    | Some r ->
      let agg = pass1.fp_agg in
      let workers_json =
        List.mapi
          (fun w (rep : worker_report) ->
            let share =
              if agg.states = 0 then 0.
              else
                float_of_int rep.wr_stats.states /. float_of_int agg.states
            in
            Obs.Json.Obj
              [
                ("worker", Obs.Json.Int w);
                ("states", Obs.Json.Int rep.wr_stats.states);
                ("transitions", Obs.Json.Int rep.wr_stats.transitions);
                ("replays", Obs.Json.Int rep.wr_stats.replays);
                ("steals", Obs.Json.Int pass1.fp_steals.(w));
                ("utilization", Obs.Json.Float share);
                ("samples", Obs.Json.List rep.wr_samples);
              ])
          pass1.fp_reports
      in
      Obs.Profile.add_section r "domains"
        (Obs.Json.Obj
           [
             ("mode", Obs.Json.Str "frontier");
             ("shards", Obs.Json.Int frontier_shards);
             ("unique_states", Obs.Json.Int agg.peak_visited);
             ("rederived", Obs.Json.Bool rederived);
             ("workers", Obs.Json.List workers_json);
           ]);
      Obs.Profile.sample ~force:true r ~tick:agg.states (fun () ->
          profile_fields agg ~depth:agg.max_depth_seen));
    outcome1
  end

(* ------------------------------------------------------------------ *)
(* Deterministic completion, shrinking                                *)

let completion_fuel = 200_000

(* Whether code [c] fires a corruption-menu item. *)
let menu_item cfg c =
  let links = Sys.links cfg in
  c >= links && c < links + List.length cfg.Config.menu

(* Run the system to a terminal state by always firing the first enabled
   code unless it is a menu item: those come last, so then nothing else
   is enabled.  Deterministic; terminates because the workload is
   bounded and corruption moves (which could re-disturb forever) are
   never chosen.  The codes fired, in order. *)
let canonical_completion sys =
  let cfg = Sys.config sys and b = Sys.codes () in
  let rec loop acc fuel =
    Sys.enabled_codes sys b;
    if fuel = 0 || b.len = 0 || menu_item cfg b.buf.(0) then List.rev acc
    else begin
      let c = b.buf.(0) in
      ignore (Sys.apply sys c);
      loop (c :: acc) (fuel - 1)
    end
  in
  loop [] completion_fuel

(* Execute a forced code prefix (leniently: codes invalidated by earlier
   edits, or naming a move the deployment lacks, are skipped) and then
   complete canonically.  Returns the system, the codes that actually
   fired, and the terminal verdict. *)
let run_forced cfg prefix =
  let sys = Sys.create cfg in
  let fired = List.filter (Sys.apply ~strict:false sys) prefix in
  let tail = canonical_completion sys in
  (sys, fired @ tail, terminal_verdict sys)

let take k l = List.filteri (fun i _ -> i < k) l

let shrink ?(log = ignore) cfg trace verdict =
  let runs = ref 0 in
  let try_prefix prefix =
    incr runs;
    let _, fired, v = run_forced cfg prefix in
    if Stab.same_kind v verdict then Some (fired, v) else None
  in
  (* Phase 1: shortest forced prefix whose canonical completion still
     violates.  Linear scan from the empty prefix: each candidate run is a
     single bounded execution, so this is cheap even for long traces. *)
  let len = List.length trace in
  let rec first_k k =
    if k > len then None
    else
      match try_prefix (take k trace) with
      | Some _ -> Some k
      | None -> first_k (k + 1)
  in
  let kept =
    match first_k 0 with
    | Some k ->
      log (Printf.sprintf "shrink: forced prefix %d -> %d moves" len k);
      take k trace
    | None ->
      (* The canonical completion of the full trace may diverge from the
         original verdict (the violation lived in the exact suffix);
         fall back to the unshrunk trace. *)
      log "shrink: no forced prefix reproduces; keeping full trace";
      trace
  in
  (* Phase 2: drop corruption moves that are not needed. *)
  let drop_one kept i =
    match List.nth_opt kept i with
    | Some c when menu_item cfg c -> (
      let candidate = List.filteri (fun j _ -> j <> i) kept in
      match try_prefix candidate with
      | Some _ ->
        log "shrink: dropped a corruption move";
        candidate
      | None -> kept)
    | Some _ | None -> kept
  in
  let kept =
    List.fold_left drop_one kept
      (List.rev (List.init (List.length kept) Fun.id))
  in
  (* Re-execute and record the complete concrete code list: the artifact
     must replay strictly, move for move. *)
  let _, fired, v = run_forced cfg kept in
  (fired, v, !runs + 1)

(* ------------------------------------------------------------------ *)
(* Counterexample artifacts                                           *)

let cex_schema = "stabreg/mc-cex/v1"

type cex = {
  config : Config.t;
  trace : Sys.move list;  (** complete, strict-replayable *)
  verdict : verdict;
  states : int;  (** states expanded when the violation was found *)
  digest : string;  (** terminal-state fingerprint *)
}

let move_to_json m =
  let open Obs.Json in
  match m with
  | Sys.Deliver { client; server; to_server } ->
    let label = Sys.link_label ~client ~server ~to_server in
    Obj [ ("move", Str "deliver"); ("label", Str label) ]
  | Sys.Tick i -> Obj [ ("move", Str "tick"); ("index", Int i) ]
  | Sys.Corrupt i -> Obj [ ("move", Str "corrupt"); ("item", Int i) ]

(* A label names a link only in exactly the form [Sys.link_label]
   renders; one that does not round-trip (a typo, a leading zero, a stray
   arrow) would name a link no deployment has. *)
let deliver_of_label ctx label =
  let error = Error (Printf.sprintf "%s: malformed deliver label %S" ctx label) in
  let id a b = int_of_string_opt (String.sub label a (b - a)) in
  let deliver client server to_server =
    if
      client >= 0 && server >= 0
      && String.equal label (Sys.link_label ~client ~server ~to_server)
    then Ok (Sys.Deliver { client; server; to_server })
    else error
  in
  match String.index_opt label '>' with
  | Some i when i >= 7 && i + 2 <= String.length label -> (
    let last = String.length label in
    match (String.sub label 0 6, id 6 (i - 1), id (i + 2) last) with
    | "link:c", Some client, Some server -> deliver client server true
    | "link:s", Some server, Some client -> deliver client server false
    | _ -> error)
  | Some _ | None -> error

let move_of_json ctx j =
  let open Obs.Json in
  let index name =
    let* i = int_field ctx name j in
    if i < 0 then Error (Printf.sprintf "%s.%s: negative index %d" ctx name i)
    else Ok i
  in
  let* kind = str_field ctx "move" j in
  match kind with
  | "deliver" ->
    let* label = str_field ctx "label" j in
    deliver_of_label (ctx ^ ".label") label
  | "tick" ->
    let* i = index "index" in
    Ok (Sys.Tick i)
  | "corrupt" ->
    let* i = index "item" in
    Ok (Sys.Corrupt i)
  | s -> Error (Printf.sprintf "%s: unknown move kind %S" ctx s)

let move_codec = Obs.Json.codec move_to_json move_of_json

(* The members a cex and a guide share, the config and the move list,
   read through the given getters. *)
let with_schedule ctor ~config ~trace =
  Obs.Json.(
    record ctor
    |> field "config" (Config.codec ()) config
    |> field "trace" (list move_codec) trace)

let cex_codec () =
  Obs.Json.(
    with_schedule
      (fun config trace verdict states digest ->
        { config; trace; verdict; states; digest })
      ~config:(fun c -> c.config) ~trace:(fun c -> c.trace)
    |> field "verdict" Stab.verdict_codec (fun c -> c.verdict)
    |> field "states" int (fun c -> c.states)
    |> field "digest" string (fun c -> c.digest)
    |> seal |> with_schema cex_schema)

let cex_to_json c = Obs.Json.encode (cex_codec ()) c

let cex_of_json j = Obs.Json.decode (cex_codec ()) "cex" j

let guide_schema = "stabreg/mc-guide/v1"

(* A guide file is a cex without the outcome fields: just a config and a
   schedule of moves to force.  A full cex artifact is accepted too (its
   recorded outcome is ignored — the schedule is re-judged from scratch). *)
let guide_of_json j =
  let open Obs.Json in
  let guide = seal (with_schedule (fun c t -> (c, t)) ~config:fst ~trace:snd) in
  match member "schema" j with
  | Some (Str s) when String.equal s cex_schema -> decode guide "guide" j
  | _ -> decode (with_schema guide_schema guide) "guide" j

(* Strict bit-for-bit replay: every recorded move must fire, the terminal
   verdict must be structurally equal, and the terminal fingerprint must
   match the recorded digest.  The cex's trace comes in here, one code at
   a time, so a move that does not fire is named as recorded. *)
let replay (c : cex) =
  let sys = Sys.create c.config in
  let rec fire i = function
    | [] -> Ok ()
    | mv :: rest ->
      if Sys.apply ~strict:false sys (Sys.code_of_move c.config mv) then fire (i + 1) rest
      else
        Error (Printf.sprintf "move %d (%s) did not apply" i (Sys.move_to_string mv))
  in
  match fire 0 c.trace with
  | Error _ as e -> e
  | Ok () ->
    let v = terminal_verdict sys in
    let digest = Sys.fingerprint sys in
    if not (Stab.verdict_equal v c.verdict) then
      Error
        (Format.asprintf "replay verdict %a differs from recorded %a"
           pp_verdict v pp_verdict c.verdict)
    else if not (String.equal digest c.digest) then
      Error
        (Printf.sprintf "replay digest %s differs from recorded %s" digest
           c.digest)
    else Ok v

(* ------------------------------------------------------------------ *)
(* One-call drivers: search (or run a guided schedule), then shrink the
   violation into a cex *)

type run = { outcome : outcome; cex : cex option; shrink_runs : int }

let package ~shrink_violations ~log cfg (outcome : outcome) =
  match (outcome.verdict, outcome.trace) with
  | Clean, _ | _, None -> { outcome; cex = None; shrink_runs = 0 }
  | (Violation _ as v), Some trace ->
    let codes = codes_of cfg trace in
    let codes, verdict, shrink_runs =
      if shrink_violations then shrink ~log cfg codes v
      else
        (* still normalize through a re-execution so the artifact
           records its own digest *)
        (codes, v, 0)
    in
    let digest = Sys.fingerprint (replay_prefix cfg codes) in
    let cex =
      { config = cfg; trace = trace_of cfg codes; verdict;
        states = outcome.stats.states; digest }
    in
    { outcome = { outcome with verdict }; cex = Some cex; shrink_runs }

let check ?budgets ?reduction ?use_visited ?seed ?target ?recorder ?race_check
    ?domains ?(shrink_violations = true) ?(log = ignore) cfg =
  let outcome =
    search_parallel ?budgets ?reduction ?use_visited ?seed ?target ?recorder
      ?race_check ?domains cfg
  in
  package ~shrink_violations ~log cfg outcome

let guided ?(shrink_violations = true) ?(log = ignore) cfg schedule =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error e -> invalid_arg ("Mc.Checker.guided: " ^ e));
  let _, fired, verdict = run_forced cfg (codes_of cfg schedule) in
  let stats = fresh_stats () in
  stats.replays <- 1;
  stats.terminals <- 1;
  stats.max_depth_seen <- List.length fired;
  package ~shrink_violations ~log cfg
    { verdict; exhaustive = false; stats; trace = Some (trace_of cfg fired) }
