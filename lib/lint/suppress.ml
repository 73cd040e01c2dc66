type span = { rules : string list; line : int }

(* Find [lint: allow <ids>] inside a source line; ids stop at a "--"
   token, a comment-close token or end of line. *)
let pragma_rules line =
  let needle = "lint:" in
  let nlen = String.length needle in
  let len = String.length line in
  let rec find i =
    if i + nlen > len then None
    else if String.equal (String.sub line i nlen) needle then Some (i + nlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> []
  | Some start -> (
    let rest = String.sub line start (len - start) in
    let toks = String.split_on_char ' ' rest in
    let toks = List.filter (fun t -> not (String.equal t "")) toks in
    match toks with
    | "allow" :: ids ->
      let rec keep = function
        | [] -> []
        | t :: _ when String.equal t "--" || String.length t >= 2
                      && String.equal (String.sub t 0 2) "*)" ->
          []
        | t :: tl -> t :: keep tl
      in
      keep ids
    | _ -> [])

let collect source =
  let lines = String.split_on_char '\n' source in
  List.mapi
    (fun i line ->
      match pragma_rules line with
      | [] -> None
      | rules -> Some { rules; line = i + 1 })
    lines
  |> List.filter_map Fun.id

let covered spans (f : Finding.t) =
  List.exists
    (fun s -> s.line = f.Finding.line && List.mem f.Finding.rule s.rules)
    spans

let filter ?(active = []) spans findings =
  let kept, dropped = List.partition (fun f -> not (covered spans f)) findings in
  (* A (span, rule) pair that matched no finding is itself worth a
     finding: stale suppressions hide nothing and rot.  Judged only
     against [active] — the rules that actually ran and apply to this
     file — so a partial-rule run (fixture tests) stays quiet about the
     rest. *)
  let used s rule =
    List.exists
      (fun (f : Finding.t) ->
        String.equal f.Finding.rule rule && f.Finding.line = s.line)
      findings
  in
  let unused =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun r ->
            if List.mem r active && not (used s r) then Some (s, r) else None)
          s.rules)
      spans
  in
  (kept, List.length dropped, unused)
