open Effect
open Effect.Deep

type status = Running | Done | Failed of exn

type handle = {
  mutable status : status;
  name : string;
  mutable blocked : string; (* the label of the current wait; "" for none *)
}

type _ Effect.t += Suspend : (('a -> unit) -> unit) -> 'a Effect.t

(* The fiber currently executing, if any.  Maintained across both the
   initial run (spawn) and every resumption (the [register] callback wraps
   [continue]), so [suspend ~label] can stamp the right handle and the
   watchdog can read the stamps of wedged fibers afterwards. *)
let current : handle option ref = ref None

let suspend ?(label = "") register =
  (match !current with Some h -> h.blocked <- label | None -> ());
  let v = perform (Suspend register) in
  (match !current with Some h -> h.blocked <- "" | None -> ());
  v

(* Continue [k] with [v] as fiber [self], restoring the previous [current]
   however it ends.  A plain handler rather than [Fun.protect]: this runs
   on every resumption. *)
let resume_as self k v =
  let prev = !current in
  current := self;
  match continue k v with
  | () -> current := prev
  | exception e ->
    current := prev;
    raise e

let spawn ?(name = "fiber") f =
  let h = { status = Running; name; blocked = "" } in
  let self = Some h in
  let handler =
    {
      retc =
        (fun () ->
          h.blocked <- "";
          h.status <- Done);
      exnc =
        (fun e ->
          h.blocked <- "";
          h.status <- Failed e;
          raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                register (fun v -> resume_as self k v))
          | _ -> None);
    }
  in
  let prev = !current in
  current := self;
  Fun.protect
    ~finally:(fun () -> current := prev)
    (fun () -> match_with f () handler);
  h

let status h = h.status

let name h = h.name

let blocked_on h =
  match h.status with
  | Running when not (String.equal h.blocked "") -> Some h.blocked
  | Running | Done | Failed _ -> None
