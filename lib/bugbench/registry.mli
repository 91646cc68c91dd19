(** The benchmark registry: the paper's Table 2, as data. *)

val all : Bench_spec.t list
(** The paper's Table 2 set. *)

val extended : Bench_spec.t list
(** Real-world bugs beyond the paper's set (PBZIP2, Apache). *)

val find : string -> Bench_spec.t option
(** Case-insensitive lookup by name, over both sets. *)

val lookup : string -> (Bench_spec.t, string) result
(** {!find}, or an error naming the unknown application and both sets. *)
