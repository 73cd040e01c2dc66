type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable size : int;
}

let create ~cmp = { cmp; data = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let grow t x =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let ndata = Array.make ncap x in
    Array.blit t.data 0 ndata 0 t.size;
    t.data <- ndata
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp t.data.(i) t.data.(parent) < 0 then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let push t x =
  grow t x;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let peek t = if t.size = 0 then None else Some t.data.(0)

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && t.cmp t.data.(l) t.data.(!smallest) < 0 then smallest := l;
  if r < t.size && t.cmp t.data.(r) t.data.(!smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(!smallest);
    t.data.(!smallest) <- tmp;
    sift_down t !smallest
  end

(* A removal shrinks [size] but leaves the old tail slot holding a live
   pointer the heap no longer owns, pinning that element for the GC until
   the slot happens to be overwritten.  The heap is polymorphic, so there
   is no dummy value to park there; instead duplicate a reference the
   heap legitimately holds anyway (the root), or drop the whole array
   once empty. *)
let release_tail_slot t =
  if t.size = 0 then t.data <- [||] else t.data.(t.size) <- t.data.(0)

let pop t =
  if t.size = 0 then None
  else begin
    let min = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    release_tail_slot t;
    Some min
  end

let take t pred =
  let found = ref (-1) in
  for i = 0 to t.size - 1 do
    let x = t.data.(i) in
    if pred x && (!found < 0 || t.cmp x t.data.(!found) < 0) then found := i
  done;
  if !found < 0 then None
  else begin
    let idx = !found in
    let x = t.data.(idx) in
    t.size <- t.size - 1;
    if idx < t.size then begin
      t.data.(idx) <- t.data.(t.size);
      (* The relocated element may violate the heap property in either
         direction relative to its new neighbourhood; restore both ways. *)
      sift_down t idx;
      sift_up t idx
    end;
    release_tail_slot t;
    Some x
  end

let clear t =
  t.size <- 0;
  t.data <- [||]

let iter_unordered t f =
  for i = 0 to t.size - 1 do
    f t.data.(i)
  done
