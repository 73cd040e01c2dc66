module M = Map.Make (Int)

(* xorshift, so the work does not depend on the stdlib's generator. *)
let next s =
  let x = !s in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  s := x;
  x land max_int

(* Small structures built several times: hashing, sorting, a balanced
   tree, all within the caches. *)
let size = 2_000

let reps = 5

let structures s =
  let h = Hashtbl.create 16 in
  for i = 0 to size - 1 do
    Hashtbl.replace h (next s mod 1_000_000) i
  done;
  let l = List.sort Int.compare (List.init size (fun i -> next s lxor i)) in
  let m = List.fold_left (fun m x -> M.add (x land 0xfffff) x m) M.empty l in
  let sum = ref 0 in
  for i = 0 to size - 1 do
    (match Hashtbl.find_opt h i with Some v -> sum := !sum + v | None -> ());
    match M.find_opt i m with Some v -> sum := !sum + v | None -> ()
  done;
  !sum

(* Fresh memory: a large array of boxed cells, each linking to a random
   one, then a walk along the links.  On the VM measured, the kv-closed
   set-up ran about two thirds slower in some processes; the structures
   above slowed by less than half as much, this part by as much. *)
let cells = 150_000

let links s =
  let a = Array.init cells (fun i -> Some (i, next s mod cells)) in
  let j = ref 0 and sum = ref 0 in
  for _ = 1 to cells do
    match a.(!j) with
    | Some (v, k) ->
      sum := !sum + v;
      j := k
    | None -> ()
  done;
  !sum

let work () =
  let s = ref 0x2545f4914f6cdd1d in
  let sum = ref 0 in
  for _ = 1 to reps do
    sum := !sum + structures s
  done;
  !sum + links s

let time () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (work ()));
  Unix.gettimeofday () -. t0

let nominal_s = 0.015

let scale ~reference_s = nominal_s /. reference_s
