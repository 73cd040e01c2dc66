let read path =
  In_channel.with_open_bin path (fun ic ->
      really_input_string ic (in_channel_length ic))

let rec make_parent path =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then begin
    make_parent dir;
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let create path =
  make_parent path;
  open_out_bin path

let write path s =
  let oc = create path in
  match output_string oc s with
  | () -> close_out oc
  | exception e ->
    close_out_noerr oc;
    raise e
