let schema_version = "stabreg/mc-profile/v1"

type t = {
  kind : string;
  every : int;
  clock : unit -> float;
  t0 : float;
  mutable last_tick : int;
  mutable samples_rev : Json.t list;
  mutable sections_rev : (string * Json.t) list;
}

let create ?(every = 1000) ?(clock = fun () -> 0.) ~kind () =
  if every <= 0 then invalid_arg "Profile.create: every must be positive";
  {
    kind;
    every;
    clock;
    t0 = clock ();
    last_tick = min_int;
    samples_rev = [];
    sections_rev = [];
  }

let branch t =
  {
    kind = t.kind;
    every = t.every;
    clock = t.clock;
    t0 = t.clock ();
    last_tick = min_int;
    samples_rev = [];
    sections_rev = [];
  }

let due t ~tick = t.last_tick = min_int || tick - t.last_tick >= t.every

let record t ~tick fields =
  t.last_tick <- tick;
  t.samples_rev <-
    Json.Obj
      (("tick", Json.Int tick)
      :: ("elapsed_s", Json.Float (t.clock () -. t.t0))
      :: fields)
    :: t.samples_rev

let sample ?(force = false) t ~tick fields =
  if force || due t ~tick then record t ~tick (fields ())

let add_section t name v = t.sections_rev <- (name, v) :: t.sections_rev

let samples t = List.length t.samples_rev

let sample_jsons t = List.rev t.samples_rev

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema_version);
      ("kind", Json.Str t.kind);
      ("every", Json.Int t.every);
      ("samples", Json.List (List.rev t.samples_rev));
      ("sections", Json.Obj (List.rev t.sections_rev));
    ]

(* --- validation ------------------------------------------------------- *)

let validate j =
  let open Json in
  let ctx = "profile" in
  let* () = expect_schema ctx schema_version j in
  let* _ = str_field ctx "kind" j in
  let* every = int_field ctx "every" j in
  let* () =
    if every > 0 then Ok ()
    else Error "profile.every: expected a positive integer"
  in
  let* _ =
    list_field ctx "samples"
      (fun ctx s ->
        let* _ = int_field ctx "tick" s in
        float_field ctx "elapsed_s" s)
      j
  in
  let* _ = obj_field ctx "sections" (fun _ v -> Ok v) j in
  Ok ()

let write ~dir ~name t =
  Report.mkdir_p dir;
  let path = Filename.concat dir (name ^ ".json") in
  let oc = open_out path in
  output_string oc (Json.to_string_pretty (to_json t));
  output_char oc '\n';
  close_out oc;
  path
