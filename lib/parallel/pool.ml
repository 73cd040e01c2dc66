(* Deterministic fan-out over OCaml 5 domains, plus the sanctioned
   shared-memory primitives for cooperative frontier search.

   The [map]/[map_checked] contract is not speed but *reproducibility*:
   callers (chaos campaigns) must observe results that are bit-identical
   no matter how the runtime schedules domains.  So that layer is
   deliberately minimal: a fixed round-robin assignment of items to
   workers decided before any domain starts, results written to distinct
   slots of a preallocated array (plain writes to distinct indices from
   different domains are race-free, and [Domain.join] publishes them to
   the caller), and exceptions re-raised in item order.

   The frontier primitives below are the one deliberate exception: the
   model checker's cooperative search *wants* domains to exchange work
   and share a visited set.  All synchronization lives here — per-deque
   and per-shard mutexes, atomic counters — so workers built on top
   never hold a lock themselves and never block inside their own
   closures. *)

exception Worker_failure of int * exn

let map ~domains f items =
  if domains < 1 then
    invalid_arg "Parallel.Pool.map: domains must be >= 1";
  let items = Array.of_list items in
  let n = Array.length items in
  let k = min domains (max 1 n) in
  if k = 1 then Array.to_list (Array.map f items)
  else begin
    let results = Array.make n None in
    let run_shard shard =
      let i = ref shard in
      while !i < n do
        (results.(!i) <-
          (match f items.(!i) with
          | v -> Some (Ok v)
          | exception e -> Some (Error e)));
        i := !i + k
      done
    in
    (* Workers take shards 1..k-1; the caller's own domain runs shard 0,
       so item 0 always executes on the calling domain (callers rely on
       this: chaos campaigns attach observability sinks to trial 0,
       which must not migrate to a worker domain). *)
    let workers = List.init (k - 1) (fun w -> Domain.spawn (fun () -> run_shard (w + 1))) in
    run_shard 0;
    List.iter Domain.join workers;
    Array.to_list
      (Array.mapi
         (fun i r ->
           match r with
           | Some (Ok v) -> v
           | Some (Error e) -> raise (Worker_failure (i, e))
           | None -> assert false)
         results)
  end

(* Worker 0 on the calling domain, workers 1..domains-1 spawned; the
   callees communicate through the internally-synchronized structures
   handed to them, so — unlike [map] — concurrency is the point, not an
   implementation detail. *)
let scatter ~domains f =
  if domains < 1 then
    invalid_arg "Parallel.Pool.scatter: domains must be >= 1";
  if domains = 1 then [ f 0 ]
  else begin
    let results = Array.make domains None in
    let run i =
      results.(i) <-
        (match f i with v -> Some (Ok v) | exception e -> Some (Error e))
    in
    let workers =
      List.init (domains - 1) (fun w -> Domain.spawn (fun () -> run (w + 1)))
    in
    run 0;
    List.iter Domain.join workers;
    Array.to_list
      (Array.mapi
         (fun i r ->
           match r with
           | Some (Ok v) -> v
           | Some (Error e) -> raise (Worker_failure (i, e))
           | None -> assert false)
         results)
  end

exception Nondeterministic of int

(* The race harness: run the fan-out twice, the second time with the
   scheduling order inverted — workers spawned in reverse shard order
   and every shard walking its items highest-index first (item 0 still
   runs on the calling domain, preserving the sink-attachment
   contract).  Any dependence on execution order — a shared accumulator,
   an order-sensitive RNG, a data race that happens to be benign under
   one schedule — shows up as a result mismatch. *)
let map_checked ~domains ?recheck f items =
  let first = map ~domains f items in
  let g = Option.value recheck ~default:f in
  let items = Array.of_list items in
  let n = Array.length items in
  let k = min domains (max 1 n) in
  let results = Array.make n None in
  let run_shard_rev shard =
    let count = if shard >= n then 0 else ((n - 1 - shard) / k) + 1 in
    let j = ref (shard + ((count - 1) * k)) in
    while !j >= 0 do
      results.(!j) <-
        (match g items.(!j) with
        | v -> Some (Ok v)
        | exception e -> Some (Error e));
      j := !j - k
    done
  in
  if k = 1 then run_shard_rev 0
  else begin
    let workers =
      List.init (k - 1) (fun w ->
          Domain.spawn (fun () -> run_shard_rev (k - 1 - w)))
    in
    run_shard_rev 0;
    List.iter Domain.join workers
  end;
  List.iteri
    (fun i v1 ->
      match results.(i) with
      | Some (Ok v2) when v1 = v2 -> ()
      | Some (Ok _) | Some (Error _) | None -> raise (Nondeterministic i))
    first;
  first

(* --- work-stealing deque ---------------------------------------------- *)

module Deque = struct
  (* A mutex-protected ring buffer.  Lock-free Chase–Lev would shave
     nanoseconds that do not matter at model-checking task granularity
     (each task costs a full prefix replay); a mutex per operation keeps
     every interleaving trivially correct. *)
  type 'a t = {
    dq_lock : Mutex.t;
    mutable dq_buf : 'a option array;
    mutable dq_head : int;  (* index of the oldest element *)
    mutable dq_len : int;
  }

  let create () =
    {
      dq_lock = Mutex.create ();
      dq_buf = Array.make 16 None;
      dq_head = 0;
      dq_len = 0;
    }

  let grow d =
    let cap = Array.length d.dq_buf in
    let buf = Array.make (cap * 2) None in
    for i = 0 to d.dq_len - 1 do
      buf.(i) <- d.dq_buf.((d.dq_head + i) mod cap)
    done;
    d.dq_buf <- buf;
    d.dq_head <- 0

  let locked d f = Mutex.protect d.dq_lock f

  let push d x =
    locked d (fun () ->
        if d.dq_len = Array.length d.dq_buf then grow d;
        d.dq_buf.((d.dq_head + d.dq_len) mod Array.length d.dq_buf) <- Some x;
        d.dq_len <- d.dq_len + 1)

  let pop d =
    locked d (fun () ->
        if d.dq_len = 0 then None
        else begin
          let i = (d.dq_head + d.dq_len - 1) mod Array.length d.dq_buf in
          let x = d.dq_buf.(i) in
          d.dq_buf.(i) <- None;
          d.dq_len <- d.dq_len - 1;
          x
        end)

  let steal d =
    locked d (fun () ->
        if d.dq_len = 0 then None
        else begin
          let x = d.dq_buf.(d.dq_head) in
          d.dq_buf.(d.dq_head) <- None;
          d.dq_head <- (d.dq_head + 1) mod Array.length d.dq_buf;
          d.dq_len <- d.dq_len - 1;
          x
        end)

  let length d = locked d (fun () -> d.dq_len)
end

(* --- the packed visited set -------------------------------------------- *)

module Visited = struct
  (* One open-addressing table per shard, linear probing, in one [Bytes]
     of fixed-width slots: [2 + width] 64-bit words, the key's two words
     and then the bitset.  Key word 0 is stored with its top bit flipped:
     an OCaml int's bits 63 and 62 are equal once sign-extended, so a
     stored word 0 is never zero, an all-zero word marks an empty slot,
     and [Int64.to_int] reads the key word back unchanged.  Bytes, not a
     Bigarray: the table lives in the OCaml heap, where heap statistics
     count it, and the GC never scans it. *)
  type shard = {
    vs_lock : Mutex.t;
    mutable vs_slots : Bytes.t;
    mutable vs_cap : int;  (* slots, a power of two *)
    mutable vs_entries : int;
    mutable vs_collisions : int;
  }

  type t = { vs_width : int; vs_shards : shard array }

  let initial_slots = 1024

  let create ?(shards = 64) ~width () =
    if shards < 1 then
      invalid_arg "Parallel.Pool.Visited.create: shards must be >= 1";
    if width < 1 then
      invalid_arg "Parallel.Pool.Visited.create: width must be >= 1";
    {
      vs_width = width;
      vs_shards =
        Array.init shards (fun _ ->
            {
              vs_lock = Mutex.create ();
              vs_slots = Bytes.make (initial_slots * 8 * (2 + width)) '\000';
              vs_cap = initial_slots;
              vs_entries = 0;
              vs_collisions = 0;
            });
    }

  let width t = t.vs_width
  let stride t = 8 * (2 + t.vs_width)

  (* The shard takes [k1]'s remainder, the home slot bits well above
     it. *)
  let shard_of t k1 =
    let s = Array.length t.vs_shards in
    t.vs_shards.(((k1 mod s) + s) mod s)

  let home sh k1 = (k1 lsr 24) land (sh.vs_cap - 1)
  let word b off = Int64.to_int (Bytes.get_int64_le b off)
  let empty b off = Int64.equal (Bytes.get_int64_le b off) 0L

  let store_key b off k1 k2 =
    Bytes.set_int64_le b off (Int64.logxor (Int64.of_int k1) Int64.min_int);
    Bytes.set_int64_le b (off + 8) (Int64.of_int k2)

  (* The slot holding [(k1, k2)], or [lnot i] for the empty slot [i]
     that ends its probe run. *)
  let locate t sh k1 k2 =
    let b = sh.vs_slots and st = stride t and last = sh.vs_cap - 1 in
    let rec go i =
      let off = i * st in
      if empty b off then lnot i
      else if word b off = k1 && word b (off + 8) = k2 then i
      else go ((i + 1) land last)
    in
    go (home sh k1)

  (* Whether a resident between [k1]'s home slot and slot [stop] shares
     the first key word: the collision the counter records. *)
  let shares_first_word t sh k1 stop =
    let st = stride t and last = sh.vs_cap - 1 in
    let rec go i = i <> stop && (word sh.vs_slots (i * st) = k1 || go ((i + 1) land last)) in
    go (home sh k1)

  let read_bits t b off =
    Array.init t.vs_width (fun w -> word b (off + 16 + (8 * w)))

  let write_bits t b off bits =
    for w = 0 to t.vs_width - 1 do
      Bytes.set_int64_le b (off + 16 + (8 * w)) (Int64.of_int bits.(w))
    done

  (* Double the slots once the load passes 0.7, re-placing every
     resident. *)
  let grow t sh =
    let st = stride t and old = sh.vs_slots and cap = sh.vs_cap in
    sh.vs_cap <- cap * 2;
    sh.vs_slots <- Bytes.make (sh.vs_cap * st) '\000';
    for i = 0 to cap - 1 do
      let off = i * st in
      if not (empty old off) then begin
        let j = lnot (locate t sh (word old off) (word old (off + 8))) in
        Bytes.blit old off sh.vs_slots (j * st) st
      end
    done

  let check_width t bits =
    if Array.length bits <> t.vs_width then
      invalid_arg "Parallel.Pool.Visited: bitset of the wrong width"

  let locked sh f = Mutex.protect sh.vs_lock f

  (* [arrive]'s table step, run under the shard lock. *)
  let arrive_locked t sh ~k1 ~k2 bits ~outside =
    match locate t sh k1 k2 with
    | i when i >= 0 ->
      let b = sh.vs_slots and off = (i * stride t) + 16 in
      for w = 0 to t.vs_width - 1 do
        let r = word b (off + (8 * w)) in
        outside.(w) <- r land lnot bits.(w);
        (* a word with nothing outside keeps its bits *)
        if outside.(w) <> 0 then
          Bytes.set_int64_le b (off + (8 * w)) (Int64.of_int (r land bits.(w)))
      done;
      true
    | i ->
      let i =
        if 10 * (sh.vs_entries + 1) > 7 * sh.vs_cap then begin
          grow t sh;
          locate t sh k1 k2
        end
        else i
      in
      let i = lnot i in
      if shares_first_word t sh k1 i then
        sh.vs_collisions <- sh.vs_collisions + 1;
      let off = i * stride t in
      store_key sh.vs_slots off k1 k2;
      write_bits t sh.vs_slots off bits;
      sh.vs_entries <- sh.vs_entries + 1;
      false

  (* The lock is taken and released here rather than through
     [Mutex.protect]: an arrival is the checker's per-node step, and the
     closure would be allocated on every one. *)
  let arrive t ~k1 ~k2 bits ~outside =
    check_width t bits;
    check_width t outside;
    let sh = shard_of t k1 in
    Mutex.lock sh.vs_lock;
    match arrive_locked t sh ~k1 ~k2 bits ~outside with
    | resident ->
      Mutex.unlock sh.vs_lock;
      resident
    | exception e ->
      Mutex.unlock sh.vs_lock;
      raise e

  let find t ~k1 ~k2 =
    let sh = shard_of t k1 in
    locked sh (fun () ->
        match locate t sh k1 k2 with
        | i when i >= 0 -> Some (read_bits t sh.vs_slots (i * stride t))
        | _ -> None)

  let length t =
    Array.fold_left (fun acc sh -> acc + locked sh (fun () -> sh.vs_entries)) 0 t.vs_shards

  let collisions t =
    Array.fold_left
      (fun acc sh -> acc + locked sh (fun () -> sh.vs_collisions))
      0 t.vs_shards
end

(* --- the shared work-stealing frontier -------------------------------- *)

module Frontier = struct
  type 'a t = {
    fro_deques : 'a Deque.t array;
    (* Tasks pushed but not yet [finish]ed.  Strictly positive while any
       task is queued *or* being expanded, so "all deques empty" alone
       never terminates a worker whose sibling is about to push. *)
    fro_pending : int Atomic.t;
    fro_stop : bool Atomic.t;
    fro_reverse : bool;
    (* Slot [w] is written only by worker [w] (inside its own [take])
       and read after the join — per-slot single-writer, race-free. *)
    fro_steals : int array;
  }

  let create ?(reverse_steal = false) ~workers () =
    if workers < 1 then
      invalid_arg "Parallel.Pool.Frontier.create: workers must be >= 1";
    {
      fro_deques = Array.init workers (fun _ -> Deque.create ());
      fro_pending = Atomic.make 0;
      fro_stop = Atomic.make false;
      fro_reverse = reverse_steal;
      fro_steals = Array.make workers 0;
    }

  let push t ~worker x =
    ignore (Atomic.fetch_and_add t.fro_pending 1);
    Deque.push t.fro_deques.(worker) x

  let finish t ~worker:_ =
    ignore (Atomic.fetch_and_add t.fro_pending (-1))

  let stop t = Atomic.set t.fro_stop true
  let stopped t = Atomic.get t.fro_stop

  let take t ~worker =
    if Atomic.get t.fro_stop then `Done
    else
      match Deque.pop t.fro_deques.(worker) with
      | Some x -> `Task x
      | None ->
        let n = Array.length t.fro_deques in
        let victim k =
          let off = if t.fro_reverse then n - k else k in
          (worker + off + n) mod n
        in
        let rec scan k =
          if k >= n then
            if Atomic.get t.fro_pending = 0 then `Done else `Retry
          else
            match Deque.steal t.fro_deques.(victim k) with
            | Some x ->
              t.fro_steals.(worker) <- t.fro_steals.(worker) + 1;
              `Task x
            | None -> scan (k + 1)
        in
        scan 1

  let steals t = Array.copy t.fro_steals
end
