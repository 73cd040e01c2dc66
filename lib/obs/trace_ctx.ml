type span = { trace : int; id : int; parent : int }

type t = { mutable next : int }

let none = { trace = 0; id = 0; parent = 0 }

let is_none s = s.id = 0

let create () = { next = 1 }

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

let child_with parent ~id =
  if id = 0 then none
  else if is_none parent then { trace = id; id; parent = 0 }
  else { trace = parent.trace; id; parent = parent.id }

let root t = child_with none ~id:(fresh t)

let child t parent = child_with parent ~id:(fresh t)

let allocated t = t.next - 1

let codec () =
  Json.(
    record (fun trace id parent -> { trace; id; parent })
    |> field "trace" int (fun s -> s.trace)
    |> field "span" int (fun s -> s.id)
    |> field "parent" int (fun s -> s.parent)
    |> seal)

let fields s = Json.members (codec ()) s
