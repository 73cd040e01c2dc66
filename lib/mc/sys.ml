open Registers

type move =
  | Deliver of { client : int; server : int; to_server : bool }
  | Tick of int
  | Corrupt of int

let link_label ~client ~server ~to_server =
  if to_server then Printf.sprintf "link:c%d->s%d" client server
  else Printf.sprintf "link:s%d->c%d" server client

let move_to_string = function
  | Deliver { client; server; to_server } ->
    "deliver " ^ link_label ~client ~server ~to_server
  | Tick i -> Printf.sprintf "tick %d" i
  | Corrupt i -> Printf.sprintf "corrupt %d" i

let move_equal a b =
  match (a, b) with
  | Deliver x, Deliver y ->
    Int.equal x.client y.client && Int.equal x.server y.server
    && Bool.equal x.to_server y.to_server
  | Tick i, Tick j | Corrupt i, Corrupt j -> Int.equal i j
  | _ -> false

let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

let rec pow10 k = if k = 0 then 1 else 10 * pow10 (k - 1)

(* The order of two non-negative ids' decimal renderings, without
   rendering them: their leading digits decide, then the shorter (a
   prefix) sorts first — "10" < "100" < "2". *)
let compare_decimal a b =
  let da = digits a and db = digits b in
  let common = min da db in
  match Int.compare (a / pow10 (da - common)) (b / pow10 (db - common)) with
  | 0 -> Int.compare da db
  | c -> c

let compare_ids a1 a2 b1 b2 =
  match compare_decimal a1 a2 with 0 -> compare_decimal b1 b2 | c -> c

let rank = function Deliver _ -> 0 | Tick _ -> 1 | Corrupt _ -> 2

(* Deliveries sort as [String.compare] of their labels: "link:c..."
   before "link:s...", then by the label's first id and its second (the
   '-' after an id sorts below any digit). *)
let compare_move a b =
  match (a, b) with
  | Deliver x, Deliver y -> (
    match Bool.compare y.to_server x.to_server with
    | 0 when x.to_server -> compare_ids x.client y.client x.server y.server
    | 0 -> compare_ids x.server y.server x.client y.client
    | c -> c)
  | Tick i, Tick j | Corrupt i, Corrupt j -> Int.compare i j
  | _ -> Int.compare (rank a) (rank b)

(* Deliveries with another client and another server touch disjoint
   process and link state, so they commute from every state.  Anything
   sharing an endpoint (a server's automaton, a client's mailbox and
   fiber), and every corruption, is dependent: the conservative relation
   the sleep-set reduction is sound for ([--cross-check] runs without
   it). *)
let independent a b =
  match (a, b) with
  | Deliver x, Deliver y -> x.client <> y.client && x.server <> y.server
  | _ -> false

type clients =
  | Regular_c of Swsr_regular.writer * Swsr_regular.reader
  | Atomic_c of Swsr_atomic.writer * Swsr_atomic.reader
  | Mwmr_c of Mwmr.process array

type t = {
  cfg : Config.t;
  engine : Sim.Engine.t;
  net : Net.t;
  adv : Byzantine.Adversary.t;
  history : Oracles.History.t;
  clients : clients;
  fibers : (string * Sim.Fiber.handle) list;
  mutable applied : int list; (* menu indices fired so far, newest first *)
  mutable corrupt_times : Sim.Vtime.t list; (* newest first *)
  named : int list; (* server slots a menu item names, ascending *)
  mailbox_ordered : bool; (* the menu can corrupt a round tag *)
  fp_buf : Buffer.t; (* fingerprint rendering, reused across calls *)
  block_buf : Buffer.t; (* per-server blocks and mailbox keys *)
}

let behavior_of = function
  | Config.Silent -> Byzantine.Behavior.silent
  | Config.Collude { sn; v } ->
    Byzantine.Behavior.collude ~cell:{ Messages.sn; v = Value.int v }

let mwmr_m = 2

let create (cfg : Config.t) =
  let rng = Sim.Rng.create 42 in
  let engine = Sim.Engine.create ~rng () in
  let params =
    Params.create_unchecked ~n:cfg.n ~f:cfg.f ~mode:Params.Async ()
  in
  (* Fixed unit delay: the explorer owns all ordering nondeterminism, so
     sampled delays would only smear states apart without adding behaviors. *)
  let net =
    Net.create ~engine ~params ~link_delay:(fun _ -> Sim.Link.fixed 1) ()
  in
  let adv = Byzantine.Adversary.deploy ~net ~rng:(Sim.Rng.split rng) in
  List.iter
    (fun (slot, k) -> Byzantine.Adversary.compromise adv slot (behavior_of k))
    cfg.byz;
  let history = Oracles.History.create () in
  let record ~proc ~kind f =
    let inv = Sim.Engine.now engine in
    let v, ok, ts = f () in
    let resp = Sim.Engine.now engine in
    Oracles.History.record history ~proc ~kind ~inv ~resp ?ts ~ok v
  in
  let clients, jobs =
    match cfg.family with
    | Config.Regular ->
      let w = Swsr_regular.writer ~net ~client_id:100 ~inst:0 in
      let r = Swsr_regular.reader ~net ~client_id:101 ~inst:0 in
      ( Regular_c (w, r),
        [
          ( "writer",
            fun () ->
              for k = 1 to cfg.writes do
                record ~proc:"writer" ~kind:Oracles.History.Write (fun () ->
                    let v = Value.int k in
                    ignore (Swsr_regular.write w v);
                    (v, true, None))
              done );
          ( "reader",
            fun () ->
              for _ = 1 to cfg.reads do
                record ~proc:"reader" ~kind:Oracles.History.Read (fun () ->
                    match
                      Swsr_regular.read ~max_iterations:cfg.read_budget r
                    with
                    | Outcome.Ok v -> (v, true, None)
                    | Outcome.Degraded _ | Outcome.Timed_out _ ->
                      (Value.bot, false, None))
              done );
        ] )
    | Config.Atomic ->
      let w = Swsr_atomic.writer ~net ~client_id:100 ~inst:0 () in
      let r = Swsr_atomic.reader ~net ~client_id:101 ~inst:0 () in
      ( Atomic_c (w, r),
        [
          ( "writer",
            fun () ->
              for k = 1 to cfg.writes do
                record ~proc:"writer" ~kind:Oracles.History.Write (fun () ->
                    let v = Value.int k in
                    ignore (Swsr_atomic.write w v);
                    (v, true, None))
              done );
          ( "reader",
            fun () ->
              for _ = 1 to cfg.reads do
                record ~proc:"reader" ~kind:Oracles.History.Read (fun () ->
                    match
                      Swsr_atomic.read ~max_iterations:cfg.read_budget r
                    with
                    | Outcome.Ok v -> (v, true, None)
                    | Outcome.Degraded _ | Outcome.Timed_out _ ->
                      (Value.bot, false, None))
              done );
        ] )
    | Config.Mwmr ->
      let mcfg = Mwmr.default_config ~m:mwmr_m in
      let procs =
        Array.init mwmr_m (fun i ->
            Mwmr.process ~net ~cfg:mcfg ~id:i ~client_id:(300 + i))
      in
      let job i p =
        let proc = Printf.sprintf "p%d" i in
        fun () ->
          for k = 1 to cfg.writes do
            let v = Value.int ((1000 * (i + 1)) + k) in
            let inv = Sim.Engine.now engine in
            ignore (Mwmr.write p v);
            let resp = Sim.Engine.now engine in
            let ts =
              match Mwmr.last_write_timestamp p with
              | Some (e, s) -> Some (e, s, i)
              | None -> None
            in
            Oracles.History.record history ~proc
              ~kind:Oracles.History.Write ~inv ~resp ?ts v
          done;
          for _ = 1 to cfg.reads do
            let inv = Sim.Engine.now engine in
            let result =
              Mwmr.read_timestamped ~max_iterations:cfg.read_budget p
            in
            let resp = Sim.Engine.now engine in
            (* Epoch-crossing reads perform the line-11 internal write; the
               checker must see it as a write. *)
            List.iter
              (fun (v, e, s) ->
                Oracles.History.record history ~proc
                  ~kind:Oracles.History.Write ~inv ~resp ~ts:(e, s, i) v)
              (Mwmr.take_restamps p);
            match result with
            | Outcome.Ok (v, e, s, j) ->
              Oracles.History.record history ~proc
                ~kind:Oracles.History.Read ~inv ~resp ~ts:(e, s, j) v
            | Outcome.Degraded _ | Outcome.Timed_out _ ->
              Oracles.History.record history ~proc
                ~kind:Oracles.History.Read ~inv ~resp ~ok:false Value.bot
          done
      in
      ( Mwmr_c procs,
        Array.to_list (Array.mapi (fun i p -> (Printf.sprintf "p%d" i, job i p)) procs)
      )
  in
  let fibers =
    List.map (fun (name, f) -> (name, Sim.Fiber.spawn ~name f)) jobs
  in
  {
    cfg;
    engine;
    net;
    adv;
    history;
    clients;
    fibers;
    applied = [];
    corrupt_times = [];
    named =
      List.filter_map
        (function
          | Config.Corrupt_server { server; _ } | Config.Crash_recover { server }
            ->
            Some server
          | _ -> None)
        cfg.menu
      |> List.sort_uniq Int.compare;
    mailbox_ordered =
      List.exists
        (function Config.Corrupt_round _ -> true | _ -> false)
        cfg.menu;
    fp_buf = Buffer.create 1024;
    block_buf = Buffer.create 256;
  }

let config t = t.cfg

let engine t = t.engine

let history t = t.history

let corrupt_times t =
  List.rev_map Sim.Vtime.to_int t.corrupt_times |> List.sort Int.compare

let client_active t =
  List.exists
    (fun (_, h) ->
      match Sim.Fiber.status h with
      | Sim.Fiber.Running -> true
      | Sim.Fiber.Done | Sim.Fiber.Failed _ -> false)
    t.fibers

let stuck t =
  List.filter_map
    (fun (name, h) ->
      match Sim.Fiber.status h with
      | Sim.Fiber.Done -> None
      | Sim.Fiber.Running -> Some name
      | Sim.Fiber.Failed e ->
        Some (name ^ " (raised: " ^ Printexc.to_string e ^ ")"))
    t.fibers

(* ------------------------------------------------------------------ *)
(* Enabled moves                                                      *)

(* One [Deliver] per link with an entry in flight, live or dropped: each
   entry holds one queued event.  The engine's other events are the
   unlabeled ones [Tick]s fire. *)
let enabled t =
  let ticks = ref (Sim.Engine.pending t.engine) and delivers = ref [] in
  let add ~client ~to_server server k =
    if k > 0 then begin
      ticks := !ticks - k;
      delivers := Deliver { client; server; to_server } :: !delivers
    end
  in
  List.iter
    (fun ((client, port) : int * Net.client_port) ->
      for s = 0 to Array.length port.to_servers - 1 do
        add ~client ~to_server:true s (Sim.Link.pending port.to_servers.(s));
        add ~client ~to_server:false s (Sim.Link.pending port.from_servers.(s))
      done)
    (Net.client_ports t.net);
  let corrupts =
    if t.cfg.menu = [] || not (client_active t) then []
    else
      List.mapi (fun i _ -> i) t.cfg.menu
      |> List.filter (fun i -> not (List.mem i t.applied))
      |> List.map (fun i -> Corrupt i)
  in
  match (List.sort compare_move !delivers, corrupts) with
  | sorted, [] when !ticks = 0 -> sorted
  | sorted, _ -> sorted @ List.init !ticks (fun i -> Tick i) @ corrupts

(* ------------------------------------------------------------------ *)
(* Applying a move                                                    *)

let apply_corruption t = function
  | Config.Corrupt_server { server; sn; v } ->
    let srv = Byzantine.Adversary.server t.adv server in
    let insts =
      match Server.instances srv with
      | [] -> [ (0, Server.instance srv 0) ]
      | l -> l
    in
    let cell = { Messages.sn; v = Value.int v } in
    List.iter
      (fun ((_, i) : int * Server.instance) ->
        i.last_val <- cell;
        i.helping <- Some cell)
      insts
  | Config.Corrupt_reader { pwsn; v } -> (
    match t.clients with
    | Atomic_c (_, r) ->
      Swsr_atomic.corrupt_reader_to r ~pwsn ~pv:(Value.int v)
    | Regular_c _ | Mwmr_c _ -> ())
  | Config.Corrupt_writer_sn sn -> (
    match t.clients with
    | Atomic_c (w, _) -> Swsr_atomic.set_wsn w sn
    | Regular_c _ | Mwmr_c _ -> ())
  | Config.Corrupt_round { client; round } -> (
    match List.assoc_opt client (Net.client_ports t.net) with
    | Some port -> port.Net.round <- abs round mod (1 lsl 30)
    | None -> ())
  | Config.Crash_recover { server } ->
    (* Crash plus recovery with lost volatile state, collapsed into one
       model step: the automaton keeps running (deliveries during the
       down window are a scheduling choice the explorer already owns) but
       its state reverts to pristine bot content. *)
    let srv = Byzantine.Adversary.server t.adv server in
    (match Server.instances srv with
    | [] -> ignore (Server.instance srv 0)
    | _ :: _ -> ());
    Server.reset srv

(* Every explored step advances the clock by one tick before firing, so
   execution order and virtual-time order coincide: the history the
   oracles see has strictly increasing instants along the explored
   interleaving, exactly as if a wall clock had witnessed it. *)
let next_instant t = Sim.Vtime.add (Sim.Engine.now t.engine) 1

let bump t = Sim.Engine.advance_to t.engine (next_instant t)

let apply ?(strict = true) t mv =
  let fail msg =
    if strict then
      invalid_arg
        (Printf.sprintf "Mc.Sys.apply: %s (%s)" msg (move_to_string mv))
    else false
  in
  match mv with
  | Deliver { client; server; to_server } ->
    (* The link's FIFO head: the only delivery the paper's model admits
       next on this channel. *)
    (match List.assoc_opt client (Net.client_ports t.net) with
    | Some port when server >= 0 && server < Array.length port.Net.to_servers ->
      let not_before = next_instant t in
      if to_server then Sim.Link.fire_head port.to_servers.(server) ~not_before
      else Sim.Link.fire_head port.from_servers.(server) ~not_before
    | Some _ | None -> false)
    || fail "no pending delivery on that link"
  | Tick i -> (
    let unlabeled =
      List.filter
        (fun (r : Sim.Engine.ready_event) -> String.equal r.r_label "")
        (Sim.Engine.ready t.engine)
    in
    match List.nth_opt unlabeled i with
    | None -> fail "no such unlabeled event"
    | Some r ->
      bump t;
      ignore (Sim.Engine.fire t.engine ~seq:r.r_seq);
      true)
  | Corrupt i ->
    if List.mem i t.applied then fail "menu item already fired"
    else (
      match List.nth_opt t.cfg.menu i with
      | None -> fail "no such menu item"
      | Some c ->
        bump t;
        t.applied <- i :: t.applied;
        t.corrupt_times <- Sim.Engine.now t.engine :: t.corrupt_times;
        apply_corruption t c;
        true)

(* ------------------------------------------------------------------ *)
(* State fingerprint                                                  *)

(* The renderer appends straight to one buffer: no Printf, no Format, and
   no intermediate strings beyond the per-server blocks and mailbox keys
   the canonical sort compares.  Its bytes are an artifact format —
   committed mc counterexamples store terminal fingerprints — and the
   golden table in test/test_mc.ml pins them. *)
let str = Buffer.add_string
let chr = Buffer.add_char
let num = Value.add_decimal

let add_cell b (c : Messages.cell) = num b c.sn; chr b ':'; Value.add_to_buffer b c.v

let add_help b = function None -> chr b '-' | Some c -> add_cell b c

let add_to_server b (env : Messages.server_envelope) =
  num b env.round; chr b '/'; num b env.client; chr b '/'; num b env.inst; chr b '/';
  match env.body with
  | Messages.Write c -> chr b 'W'; add_cell b c
  | Messages.New_help c -> chr b 'H'; add_cell b c
  | Messages.Read nr -> str b (if nr then "Rn" else "Ro")

(* An ack as [round/origin/body] with the origin written as 0; a renamed
   origin is spliced in by [add_renamed]. *)
let add_to_client b (env : Messages.client_envelope) =
  num b env.round;
  str b "/0/";
  match env.body with
  | Messages.Ack_write h -> chr b 'a'; add_help b h
  | Messages.Ack_read (c, h) -> chr b 'A'; add_cell b c; chr b ','; add_help b h

let add_renamed b key s =
  let cut = String.index key '/' + 1 in
  Buffer.add_substring b key 0 cut;
  num b s;
  Buffer.add_substring b key (cut + 1) (String.length key - cut - 1)

let add_epoch b (e : Epoch.t) =
  num b e.s; chr b '{'; List.iter (fun x -> num b x; chr b ' ') e.a; chr b '}'

let add_ts b = function
  | None -> chr b '-'
  | Some (e, s, j) -> add_epoch b e; chr b '/'; num b s; chr b '/'; num b j

(* The oracles only compare instants for order, so the fingerprint keeps
   the order type of the recorded instants rather than their absolute
   values: order-isomorphic pasts merge, which is what lets permuted
   interleavings converge on one canonical state.  An instant's rank is
   its index among the sorted distinct instants. *)
let add_history b t =
  let ops = Oracles.History.ops t.history in
  let corrupt = List.sort Int.compare (List.map Sim.Vtime.to_int t.corrupt_times) in
  let times =
    List.fold_left
      (fun acc (o : Oracles.History.op) ->
        Sim.Vtime.to_int o.inv :: Sim.Vtime.to_int o.resp :: acc)
      corrupt ops
    |> List.sort_uniq Int.compare |> Array.of_list
  in
  let rank v =
    let lo = ref 0 and hi = ref (Array.length times - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if times.(mid) < v then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  List.iter
    (fun (o : Oracles.History.op) ->
      str b o.proc;
      str b
        (match o.kind with
        | Oracles.History.Write -> "|W|"
        | Oracles.History.Read -> "|R|");
      num b (rank (Sim.Vtime.to_int o.inv)); chr b '|';
      num b (rank (Sim.Vtime.to_int o.resp)); chr b '|';
      Value.add_to_buffer b o.value;
      str b (if o.ok then "|true|" else "|false|");
      add_ts b o.ts;
      chr b ';')
    ops;
  str b "X:";
  List.iter (fun ct -> num b (rank ct); chr b ' ') corrupt

(* Everything attached to one server slot, rendered WITHOUT its id: the
   automaton instances (or the byzantine behavior marker — the assignment
   is config-constant, but two byzantine slots with different behaviors
   must not be interchangeable) and the in-flight payloads on its links,
   per client in client order.  Two servers with equal blocks are
   observationally interchangeable. *)
let server_block t ports b srv =
  let s = Server.id srv in
  (match List.assoc_opt s t.cfg.byz with
  | Some Config.Silent -> str b "Bs"
  | Some (Config.Collude { sn; v }) -> str b "Bc"; num b sn; chr b ':'; num b v
  | None ->
    List.iter
      (fun ((inst, i) : int * Server.instance) ->
        num b inst; chr b '='; add_cell b i.last_val;
        chr b '+'; add_help b i.helping; chr b ',')
      (Server.instances srv));
  List.iter
    (fun ((id, port) : int * Net.client_port) ->
      str b "|c"; num b id; chr b '>';
      List.iter
        (fun env -> add_to_server b env; chr b ';')
        (Sim.Link.in_flight port.Net.to_servers.(s));
      chr b '<';
      (* the server field of an ack on this server's own reply link is
         self-referential; it stays 0 *)
      List.iter
        (fun env -> add_to_client b env; chr b ';')
        (Sim.Link.in_flight port.Net.from_servers.(s)))
    ports

(* Symmetry reduction: the protocols never branch on a server's identity
   (uniform broadcast, uniform links) and the oracles only read the
   client-side history, so permuting server slots yields an isomorphic
   state with the same verdicts.  Only slots named by a corruption-menu
   item must keep their identity (a pending [Corrupt_server {server=2}]
   distinguishes slot 2).  The fingerprint renders the state in canonical
   coordinates — named slots first in id order, then the anonymous slots
   sorted by their serialized block — and returns the renaming so the
   checker can put sleep sets into the same coordinates (comparing sleep
   sets across symmetry-merged states is only sound canonically). *)
let fingerprint_raw_ex t =
  let servers = Byzantine.Adversary.servers t.adv in
  let n = Array.length servers in
  let ports = Net.client_ports t.net in
  let render f =
    Buffer.clear t.block_buf; f t.block_buf; Buffer.contents t.block_buf
  in
  let blocks =
    Array.map (fun srv -> render (fun b -> server_block t ports b srv)) servers
  in
  (* Each queued ack is rendered once, with origin 0: that is its
     reference key below, and the client section splices the renamed
     origin back in.  The only mailbox consumer is
     [Collect.attempt_once], which files responses into a per-server
     slots array — so the arrival ORDER of queued acks is semantically
     inert and the mailbox can be treated as a multiset.  Its [Health]
     bookkeeping is left out too: only an attempt with a policy deadline
     feeds it, and mc deployments run [Params.paper_wait].  The one
     exception to order-blindness: an envelope whose round tag has
     gone stale is normally dead forever, but a pending [Corrupt_round]
     item could resurrect it, and whether a stale envelope was
     consumed-and-dropped or still queued does depend on order.  So order
     is only erased when the menu carries no round corruption. *)
  let mailboxes =
    List.map
      (fun ((id, port) : int * Net.client_port) ->
        ( id,
          port,
          List.map
            (fun (env : Messages.client_envelope) ->
              (env.server, render (fun b -> add_to_client b env)))
            (Sim.Mailbox.to_list port.Net.mailbox) ))
      ports
  in
  (* A server id also escapes into client mailboxes (ack envelopes name
     their origin).  The references to a server — rendered without ids —
     are permutation-invariant, so refining the sort key with them makes
     the canonical form complete: two states that differ only by a
     permutation of anonymous servers always render identically, and
     servers left tied (equal block, equal references) are true
     automorphisms, so the id tie-break is harmless.  [refs.(s)] collects
     [(client index, occurrences)], last client first. *)
  let refs = Array.make n [] in
  List.iteri
    (fun ci (_, _, keys) ->
      let occ = Array.make n [] in
      List.iteri
        (fun pos (s, key) ->
          if s >= 0 && s < n then
            occ.(s) <-
              (if t.mailbox_ordered then "@" ^ string_of_int pos else key)
              :: occ.(s))
        keys;
      Array.iteri (fun s l -> if l <> [] then refs.(s) <- (ci, l) :: refs.(s)) occ)
    mailboxes;
  let refkeys =
    Array.map
      (fun per_client ->
        render (fun b ->
            List.iter
              (fun (ci, occurrences) ->
                num b ci;
                chr b '[';
                str b (String.concat "," (List.sort String.compare occurrences));
                str b "];")
              (List.rev per_client)))
      refs
  in
  let anonymous =
    List.filter
      (fun s -> not (List.mem s t.named))
      (List.init n Fun.id)
    |> List.sort (fun a b ->
           match String.compare blocks.(a) blocks.(b) with
           | 0 -> (
             match String.compare refkeys.(a) refkeys.(b) with
             | 0 -> Int.compare a b
             | c -> c)
           | c -> c)
  in
  let order = Array.of_list (t.named @ anonymous) in
  let canon = Array.make n 0 in
  Array.iteri (fun pos s -> canon.(s) <- pos) order;
  let ren s = if s >= 0 && s < n then canon.(s) else s in
  (* Servers still tied after the (block, refkey) sort are genuinely
     interchangeable — swapping them is a state automorphism.  Map each
     to the least member of its tie group: the explorer only fires
     deliveries at class representatives, since the other successors are
     isomorphic (equal blocks include the link contents, so a
     representative's move is enabled whenever a class member's is). *)
  let rep_arr = Array.init n Fun.id in
  (let prev = ref None in
   List.iter
     (fun s ->
       (match !prev with
       | Some p
         when String.equal blocks.(p) blocks.(s)
              && String.equal refkeys.(p) refkeys.(s) ->
         rep_arr.(s) <- rep_arr.(p)
       | _ -> ());
       prev := Some s)
     anonymous);
  let rep s = if s >= 0 && s < n then rep_arr.(s) else s in
  let b = t.fp_buf in
  Buffer.clear b;
  (* servers in canonical order *)
  Array.iteri
    (fun pos s -> chr b 's'; num b pos; chr b ':'; str b blocks.(s); chr b '\n')
    order;
  (* client ports: round tag and queued acks (ack origins renamed, and
     the queue rendered as a sorted multiset unless a round corruption
     could make order matter); link traffic lives inside the server
     blocks *)
  List.iter
    (fun (id, (port : Net.client_port), keys) ->
      chr b 'c'; num b id; str b " r"; num b port.round; str b " q[";
      if t.mailbox_ordered then
        List.iter (fun (s, key) -> add_renamed b key (ren s); chr b ';') keys
      else
        List.map
          (fun (s, key) ->
            match ren s with
            | 0 -> key
            | r -> render (fun kb -> add_renamed kb key r))
          keys
        |> List.sort String.compare
        |> List.iter (fun key -> str b key; chr b ';');
      str b "]\n")
    mailboxes;
  (* client persistent state *)
  (match t.clients with
  | Regular_c _ -> str b "reg"
  | Atomic_c (w, r) ->
    str b "wsn="; num b (Swsr_atomic.wsn w); str b ";pwsn="; num b (Swsr_atomic.pwsn r);
    str b ";pv="; Value.add_to_buffer b (Swsr_atomic.pv r)
  | Mwmr_c procs ->
    Array.iter
      (fun p ->
        chr b 'p'; num b (Mwmr.id p); chr b ':';
        (match Mwmr.last_write_timestamp p with
        | None -> chr b '-'
        | Some (e, s) -> add_epoch b e; chr b '/'; num b s);
        str b ";eo="; num b (Mwmr.epochs_opened p); chr b ';';
        List.iter
          (fun (v, e, s) ->
            Value.add_to_buffer b v; chr b '@';
            add_epoch b e; chr b '/'; num b s; chr b ',')
          (Mwmr.restamps p);
        Array.iter
          (fun w -> chr b 'w'; num b (Swsr_atomic.wsn w); chr b ',')
          (Swmr.copies (Mwmr.own p));
        Array.iter
          (fun rd ->
            let sr = Swmr.sr_reader rd in
            chr b 'r'; num b (Swsr_atomic.pwsn sr); chr b ':';
            Value.add_to_buffer b (Swsr_atomic.pv sr); chr b ',')
          (Mwmr.views p);
        chr b '\n')
      procs);
  (* which corruption choices are still available *)
  str b "\nM:";
  List.iter (fun i -> num b i; chr b ' ') (List.sort Int.compare t.applied);
  (* fiber progress *)
  List.iter
    (fun (name, h) ->
      str b name;
      chr b
        (match Sim.Fiber.status h with
        | Sim.Fiber.Running -> 'r'
        | Sim.Fiber.Done -> 'd'
        | Sim.Fiber.Failed _ -> 'f'))
    t.fibers;
  chr b '\n';
  add_history b t;
  (Digest.string (Buffer.contents b), ren, rep)

let fingerprint_ex t =
  let d, ren, rep = fingerprint_raw_ex t in
  (Digest.to_hex d, ren, rep)

let fingerprint t =
  let d, _, _ = fingerprint_ex t in
  d

let canonical_move ren = function
  | Deliver d as m ->
    let server = ren d.server in
    if Int.equal server d.server then m else Deliver { d with server }
  | (Tick _ | Corrupt _) as m -> m
