exception Out_of_budget

let max_steps = 2_000_000

let check h =
  let ops = Array.of_list (History.ops h) in
  let n = Array.length ops in
  (* precedes.(i).(j): op i responded before op j was invoked. *)
  let precedes =
    Array.init n (fun i ->
        Array.init n (fun j ->
            i <> j && Sim.Vtime.( <= ) ops.(i).History.resp ops.(j).History.inv))
  in
  let used = Array.make n false in
  let steps = ref 0 in
  (* DFS: extend the linearization with any unused op that is real-time
     minimal among the unused, keeping track of the current register
     value. *)
  let rec go placed current =
    if placed = n then true
    else begin
      incr steps;
      if !steps > max_steps then raise Out_of_budget;
      let ok = ref false in
      let i = ref 0 in
      while (not !ok) && !i < n do
        let cand = !i in
        incr i;
        if not used.(cand) then begin
          let minimal =
            let blocked = ref false in
            for j = 0 to n - 1 do
              if (not used.(j)) && j <> cand && precedes.(j).(cand) then
                blocked := true
            done;
            not !blocked
          in
          if minimal then begin
            let op = ops.(cand) in
            match op.History.kind with
            | History.Write ->
              used.(cand) <- true;
              if go (placed + 1) op.History.value then ok := true;
              used.(cand) <- false
            | History.Read ->
              if
                op.History.ok
                && Registers.Value.equal op.History.value current
              then begin
                used.(cand) <- true;
                if go (placed + 1) current then ok := true;
                used.(cand) <- false
              end
          end
        end
      done;
      !ok
    end
  in
  match go 0 Registers.Value.bot with
  | result -> Some result
  | exception Out_of_budget -> None
