(* [active] is [sinks <> []] kept in a field of its own: the guard hot
   paths inline is then one load and a compare against [false], with the
   inactive case falling through. *)
type t = {
  mutable sinks : (Event.t -> unit) list;
  mutable active : bool;
  mutable next_op : int;
}

let create () = { sinks = []; active = false; next_op = 0 }

let active t = t.active

let attach t sink =
  t.sinks <- t.sinks @ [ sink ];
  t.active <- true

let emit t event = if t.active then List.iter (fun sink -> sink event) t.sinks

let record t =
  let events_rev = ref [] in
  attach t (fun e -> events_rev := e :: !events_rev);
  fun () -> List.rev !events_rev

let next_op_id t =
  let id = t.next_op in
  t.next_op <- id + 1;
  id
