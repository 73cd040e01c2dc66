type kind = Write | Read

type op = {
  proc : string;
  kind : kind;
  inv : Sim.Vtime.t;
  resp : Sim.Vtime.t;
  value : Registers.Value.t;
  ok : bool;
  ts : (Registers.Epoch.t * int * int) option;
}

type t = { mutable ops_rev : op list; mutable count : int }

let create () = { ops_rev = []; count = 0 }

let copy t = { ops_rev = t.ops_rev; count = t.count }

let record t ~proc ~kind ~inv ~resp ?ts ?(ok = true) value =
  t.ops_rev <- { proc; kind; inv; resp; value; ok; ts } :: t.ops_rev;
  t.count <- t.count + 1

let ops t =
  (* rev gives recording order; stable sort keeps it for equal times. *)
  List.stable_sort
    (fun a b -> Sim.Vtime.compare a.inv b.inv)
    (List.rev t.ops_rev)

let writes t = List.filter (fun o -> o.kind = Write) (ops t)

let reads t = List.filter (fun o -> o.kind = Read) (ops t)

let split t = List.partition (fun o -> o.kind = Write) (ops t)

let length t = t.count

(* In the discrete-time recorder, an operation responding at the same
   instant another is invoked precedes it (the response event fired first),
   so touching endpoints are sequential, not concurrent. *)
let overlap a b =
  not (Sim.Vtime.( <= ) a.resp b.inv || Sim.Vtime.( <= ) b.resp a.inv)

let pp_op ppf o =
  Format.fprintf ppf "%s %s[%d,%d] %a%s" o.proc
    (match o.kind with Write -> "W" | Read -> "R")
    (Sim.Vtime.to_int o.inv) (Sim.Vtime.to_int o.resp) Registers.Value.pp
    o.value
    (if o.ok then "" else " (budget-exhausted)")
