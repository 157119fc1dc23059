(** The information-theoretic graph protocols of Section 4.

    These are the communication-optimal (computation-unbounded) baselines:
    a graph's canonical index — the first graph in lexicographic order
    isomorphic to it — is turned into a polynomial over GF(2^61-1) whose
    evaluation at a shared random point fingerprints the isomorphism class
    (Schwartz–Zippel). Computation is brute force over relabelings, so
    these run only for small n (≤ 8 or so), exactly as the paper charges
    unbounded computation for them. *)

val isomorphism_check :
  seed:int64 -> Ssr_graphs.Graph.t -> Ssr_graphs.Graph.t -> bool * Ssr_setrecon.Comm.stats
(** Theorem 4.1: one round, O(log q) bits. Never rejects isomorphic
    graphs; accepts non-isomorphic ones with probability O(n^2 / 2^61).
    Alice's message is the point r and p_A(r), one 8-byte field word each;
    Bob evaluates at the r he receives, and a lost or malformed message
    reads as [false]. *)

val run_isomorphism_check :
  comm:Ssr_setrecon.Comm.t -> seed:int64 -> Ssr_graphs.Graph.t -> Ssr_graphs.Graph.t -> bool
(** {!isomorphism_check} threaded through a caller-supplied recorder. *)

type error = [ `No_candidate of Ssr_setrecon.Comm.stats ]

val reconcile :
  seed:int64 -> d:int ->
  alice:Ssr_graphs.Graph.t -> bob:Ssr_graphs.Graph.t -> unit ->
  (Ssr_graphs.Graph.t * Ssr_setrecon.Comm.stats, error) result
(** Theorem 4.3: Alice sends her canonical polynomial's evaluation; Bob
    enumerates every graph within d edge flips of his own and adopts the
    first whose canonical polynomial matches. The result is isomorphic to
    Alice's graph with probability 1 - O(n^{2d+2}/2^61). One round,
    the same 2-field-word message as {!isomorphism_check}. *)

val run_reconcile :
  comm:Ssr_setrecon.Comm.t -> seed:int64 -> d:int ->
  alice:Ssr_graphs.Graph.t -> bob:Ssr_graphs.Graph.t -> Ssr_graphs.Graph.t option
(** {!reconcile} threaded through a caller-supplied recorder; [None] is
    [`No_candidate]. *)
