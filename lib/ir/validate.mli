(** Static well-formedness checking for Mir programs: label resolution,
    unique instruction ids, known callees with matching arity, a
    parameterless main, reachability of every block. Run by the tests on
    every benchmark and on every hardened program, so the ConAir
    transformation is itself validated. *)

type problem = { where : string; what : string }

val pp_problem : Format.formatter -> problem -> unit

val check : Program.t -> problem list
(** All problems found; [[]] means well-formed. *)

