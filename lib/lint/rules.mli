(** The stablint rule catalog.

    R1–R5 enforce the invariants the replay/model-checking layers
    assume; R6–R9 (defined in {!Domains_rule}) enforce domain-safety
    for the multicore engines (see EXPERIMENTS.md, "Static analysis"):

    - {b R1 no-nondeterminism}: no ambient randomness ([Random.int] and
      friends on the global state, [Random.State.make_self_init]), no
      wall-clock reads ([Unix.gettimeofday], [Unix.time], [Sys.time]),
      no order-sensitive [Hashtbl.iter], and no [Hashtbl.fold] whose
      result is not immediately sorted.  Scoped to the
      determinism-critical libraries ([sim], [mc], [chaos], [registers],
      [history], [obs]).  Seeded [Random.State] values are allowed: they
      are deterministic given the seed.
    - {b R2 no-polymorphic-compare}: no [Stdlib.compare] (or qualified
      polymorphic [=], [<>], [<], [>], [<=], [>=]), no bare [compare]
      passed as a comparator argument, and no [=]/[<>] applied to a
      syntactically structured operand (record, tuple, constructor
      application, list/array literal).  Scoped to protocol/oracle code
      ([registers], [history], [mc], [chaos], [shard]) plus — as the
      relaxed subset — [test/] and [examples/].  Also no polymorphic
      [max]/[min], bare or [Stdlib.]-qualified: a call to a function
      that is never specialized, so every call is a C compare.  That
      check covers the protocol and hot-path libraries ([sim] and
      [datalink] too), but not [test/] or [examples/].
    - {b R3 no-wildcard-message-match}: no [_ ->] (or or-pattern
      containing [_]) in a [match]/[function] that elsewhere names a
      message/event constructor (a constructor qualified by a module
      path mentioning [Messages] or [Event]).  Adding a constructor must
      force every handler to take a position.
    - {b R4 no-partial-functions}: no [List.hd], [List.tl], [List.nth],
      [Option.get], explicit [Array.get] on a computed index, or bare
      [failwith] in protocol hot paths ([registers], [history], [mc],
      [chaos], [sim], [datalink]) plus — as the relaxed subset —
      [test/] and [examples/].  A partial call whose enclosing [match]
      carries an [exception] case is handled and not flagged.
    - {b R5 mli-coverage}: every [.ml] under [lib/] must have a sibling
      [.mli].

    Every rule is suppressible at the site with a
    [(* lint: allow R<n> *)] line pragma; see {!Suppress}. *)

val r1 : Rule.t

val r2 : Rule.t

val r3 : Rule.t

val r4 : Rule.t

val r5 : Rule.t

val r6 : Rule.t
(** See {!Domains_rule}. *)

val r7 : Rule.t

val r8 : Rule.t

val r9 : Rule.t

val all : Rule.t list
(** The registry, in id order (R1–R5 plus the domain-safety rules
    R6–R9 from {!Domains_rule}). *)

val by_id : string -> Rule.t option
