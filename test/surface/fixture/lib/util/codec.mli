val used : int -> int
(** Called from bin/ by its library path. *)

val uncalled : int
(** Named only in comments and strings: reported as having no caller. *)

val aliased : int -> int
(** Called from bench/ only through [module C = Ssr_util.Codec]. *)

module Sub : sig
  val deep : int
  (** Called only as [Codec.Sub.deep] from a sibling module. *)
end

val hook : int
(** Called only from test/, and allowlisted. *)

val test_only : int
(** Called only from test/, not allowlisted: reported. *)
