(** Scripted delay samplers for adversarially scheduled experiments
    ({!Fig1}, {!Starvation}, {!Swmr_inversion}).  Each of them passes
    {!Scenario.create} a [link_delay] that matches on a link's endpoints
    [(client, server, to_server)] and scripts it with {!scripted}. *)

val scripted : int list -> int -> Sim.Link.sampler
(** [scripted script default] plays the delays of [script] in order, then
    returns [default] forever. *)

val far : int
(** A delay far beyond any experiment's horizon: keeps a message in
    flight "forever" (asynchrony made maximal). *)
