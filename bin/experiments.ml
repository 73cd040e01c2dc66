(* stabreg-experiments: regenerates every table of EXPERIMENTS.md and
   drives the chaos, mc, recovery and shard harnesses.  The subcommand
   table is Exp_drivers.Cli. *)

let () = exit (Cmdliner.Cmd.eval Exp_drivers.Cli.main)
