(* Seeded consistent-hash ring with virtual nodes.

   Each shard owns [vnodes] points on a 62-bit ring; a key maps to the
   shard owning the first point at or clockwise after the key's hash.
   Point positions depend only on (seed, shard index, vnode index), so
   growing the ring from S to S+1 shards adds the new shard's points and
   moves nothing else — the minimal-remap property the tests pin: a key
   either keeps its shard or moves to the new one.

   Hashing is splitmix64-style finalization (for points) over an FNV-1a
   string digest (for keys): deterministic across platforms, seeded, and
   free of polymorphic compare — orderings use Int.compare only. *)

type t = {
  seed : int;
  shards : int;
  vnodes : int;
  points : (int * int) array;  (* (position, shard), sorted by position *)
}

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

(* Chain the mixer instead of hashing a linear combination, so distinct
   (seed, shard, vnode) triples cannot alias by arithmetic accident. *)
let point_hash ~seed ~shard ~vnode =
  let h = mix64 (Int64.of_int seed) in
  let h = mix64 (Int64.logxor h (Int64.of_int (shard + 1))) in
  let h = mix64 (Int64.logxor h (Int64.of_int (vnode + 1))) in
  Int64.to_int h land max_int

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let key_hash ~seed key =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    key;
  let salted = Int64.logxor !h (mix64 (Int64.of_int seed)) in
  Int64.to_int (mix64 salted) land max_int

let compare_points (h1, s1) (h2, s2) =
  match Int.compare h1 h2 with 0 -> Int.compare s1 s2 | c -> c

let create ~seed ~shards ~vnodes =
  if shards <= 0 then invalid_arg "Ring.create: need at least one shard";
  if vnodes <= 0 then invalid_arg "Ring.create: need at least one vnode";
  let points = Array.make (shards * vnodes) (0, 0) in
  for s = 0 to shards - 1 do
    for v = 0 to vnodes - 1 do
      points.((s * vnodes) + v) <- (point_hash ~seed ~shard:s ~vnode:v, s)
    done
  done;
  Array.sort compare_points points;
  { seed; shards; vnodes; points }

let shards t = t.shards
let vnodes t = t.vnodes
let seed t = t.seed
let points t = Array.copy t.points

(* First point with position >= h, wrapping to the start of the array
   past the highest point. *)
let successor t h =
  let n = Array.length t.points in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let pos, _ = t.points.(mid) in
    if pos >= h then hi := mid else lo := mid + 1
  done;
  if !lo = n then 0 else !lo

let shard_of t key =
  let h = key_hash ~seed:t.seed key in
  let _, s = t.points.(successor t h) in
  s

let spread t keys =
  let counts = Array.make t.shards 0 in
  List.iter
    (fun k ->
      let s = shard_of t k in
      counts.(s) <- counts.(s) + 1)
    keys;
  counts
