open Registers

type ctx = { net : Net.t; server_id : int; rng : Sim.Rng.t }

type t = ctx -> Messages.server_envelope -> unit

let silent _ctx _env = ()

(* Even a Byzantine answer is causally a response to the request it
   fakes an answer for: keep it in the operation's tree so traces show
   which adversarial replies a client consumed. *)
let reply ctx env body = Net.answer ctx.net ~server:ctx.server_id env body

let honest srv ctx env = Server.handle srv env ~ack:(reply ctx)

type wipe = [ `Arbitrary | `Reset | `Keep ]

let apply_wipe wipe srv rng =
  match wipe with
  | `Arbitrary -> Server.corrupt srv rng
  | `Reset -> Server.reset srv
  | `Keep -> ()

let crash_recover ~down_for ~wipe srv =
  (* The down window starts at the first delivery the crashed slot would
     have received (a behavior only observes deliveries); messages during
     the window are dropped.  The first delivery at or after the recovery
     instant finds the server back up over wiped state — recovery is a
     transient fault by construction. *)
  let recover_at = ref None in
  let up = ref false in
  fun ctx env ->
    if !up then honest srv ctx env
    else begin
      let now = Sim.Engine.now (Net.engine ctx.net) in
      let deadline =
        match !recover_at with
        | Some d -> d
        | None ->
          let d = Sim.Vtime.add now down_for in
          recover_at := Some d;
          d
      in
      if Sim.Vtime.to_int now >= Sim.Vtime.to_int deadline then begin
        apply_wipe wipe srv ctx.rng;
        up := true;
        honest srv ctx env
      end
    end

let crash_after k srv =
  let remaining = ref k in
  fun ctx env ->
    if !remaining > 0 then begin
      decr remaining;
      honest srv ctx env
    end

let random_help rng =
  if Sim.Rng.bool rng then None else Some (Messages.arbitrary_cell rng)

let garbage ctx env =
  let body =
    if Sim.Rng.bool ctx.rng then Messages.Ack_write (random_help ctx.rng)
    else
      Messages.Ack_read (Messages.arbitrary_cell ctx.rng, random_help ctx.rng)
  in
  reply ctx env body

let frozen srv ctx (env : Messages.server_envelope) =
  (* Answer from the automaton's captured state without ever updating it:
     acknowledge writes (so the writer is not slowed down) and reads, but
     ignore the payloads. *)
  let i = Server.instance srv env.inst in
  match env.body with
  | Messages.Write _ -> reply ctx env (Messages.Ack_write i.Server.helping)
  | Messages.New_help _ -> ()
  | Messages.Read _ ->
    reply ctx env (Messages.Ack_read (i.Server.last_val, i.Server.helping))

let equivocate ctx (env : Messages.server_envelope) =
  (* A well-formed answer whose value depends on who is asking and who is
     answering, so that several equivocators never accidentally agree. *)
  let skew =
    {
      Messages.sn = (env.client * 31) + ctx.server_id + 1;
      v = Value.int ((env.client * 1000) + ctx.server_id);
    }
  in
  let body =
    match env.body with
    | Messages.Write _ | Messages.New_help _ -> Messages.Ack_write (Some skew)
    | Messages.Read _ -> Messages.Ack_read (skew, Some skew)
  in
  reply ctx env body

let collude_reply ~cell (env : Messages.server_envelope) =
  match env.body with
  | Messages.Write _ | Messages.New_help _ -> Messages.Ack_write (Some cell)
  | Messages.Read _ -> Messages.Ack_read (cell, Some cell)

let collude ~cell ctx env = reply ctx env (collude_reply ~cell env)

let flaky ~drop_probability srv ctx env =
  if Sim.Rng.float ctx.rng 1.0 >= drop_probability then honest srv ctx env

let delayed ~by srv ctx env =
  Sim.Engine.schedule (Net.engine ctx.net) ~delay:by (fun () ->
      honest srv ctx env)
