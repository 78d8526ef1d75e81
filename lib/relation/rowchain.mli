(** Fused row-operator chains of the compiled execution core
    ([Physical.Pipeline]: distributed fixpoint branches and the
    whole-plan shell).

    A chain is a list of relational row operators compiled once per
    worker into nested OCaml closures over preallocated scratch rows.
    Running the chain on a row costs no allocation beyond what [Probe]
    callbacks return, so scan→join→filter→project pipelines execute
    column-at-a-time without materializing intermediates. *)

type op =
  | Filter of (int array -> bool)
      (** Keep rows satisfying the predicate over the current scratch. *)
  | Project of int array
      (** Replace the scratch by the listed positions (rename/reorder/drop). *)
  | Probe of {
      key_pos : int array;  (** key columns: positions in the current scratch *)
      extra_pos : int array;
          (** appended columns: positions in each matched tuple *)
      probe : int -> int array -> int array list;
          (** worker -> key -> matching tuples *)
    }
      (** Index join: for each match, emit current row ++ matched extras. *)
  | Antiprobe of { key_pos : int array; mem : int -> int array -> bool }
      (** Anti join: keep rows whose key (worker -> key -> present) is
          absent from the built side. *)

val compile : w:int -> entry:int array -> op list -> emit:(int array -> unit) -> unit -> unit
(** [compile ~w ~entry ops ~emit] builds worker [w]'s closure chain
    ([Probe] / [Antiprobe] lookups are specialised to [w] once, here).
    The caller fills [entry] with one input row (arity =
    [Array.length entry]) and invokes the returned thunk; each surviving
    output row is passed to [emit] as the final scratch array, valid only
    for the duration of the call. *)
