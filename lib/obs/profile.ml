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

(* A sample is kept as it was recorded: its [tick] and [elapsed_s] are
   checked, the engine's own members pass through. *)
let sample_codec () =
  let open Json in
  let head =
    record (fun tick elapsed_s -> (tick, elapsed_s))
    |> field "tick" int fst
    |> field "elapsed_s" float snd
    |> seal
  in
  codec Fun.id (fun ctx j -> Result.map (fun _ -> j) (decode head ctx j))

let codec () =
  Json.(
    record (fun kind every samples sections ->
        {
          (create ~every ~kind ()) with
          samples_rev = List.rev samples;
          sections_rev = List.rev sections;
        })
    |> field "kind" string (fun t -> t.kind)
    |> field "every" pos (fun t -> t.every)
    |> field "samples" (list (sample_codec ())) sample_jsons
    |> field "sections" (assoc raw) (fun t -> List.rev t.sections_rev)
    |> seal |> with_schema schema_version)

let to_json t = Json.encode (codec ()) t

let of_json j = Json.decode (codec ()) "profile" j
