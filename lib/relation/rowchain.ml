(* Fused row-operator chains: the code generator behind the compiled
   execution core ([Physical.Pipeline]: distributed fixpoint branches and
   the whole-plan shell). A chain is compiled once per worker into nested
   closures over preallocated scratch rows; running it per input row
   costs no allocation beyond what probes return. *)

type op =
  | Filter of (int array -> bool)  (* keep rows satisfying the predicate *)
  | Project of int array  (* new scratch = old scratch at these positions *)
  | Probe of {
      key_pos : int array;  (* key columns, positions in the input scratch *)
      extra_pos : int array;  (* appended columns, positions in the matched tuple *)
      probe : int -> int array -> int array list;  (* worker -> key -> matching tuples *)
    }
  | Antiprobe of { key_pos : int array; mem : int -> int array -> bool }

(* Compile [ops] into worker [w]'s closure chain rooted at [entry]: the
   caller fills [entry] with one input row and invokes the returned
   thunk; surviving output rows reach [emit] as the final scratch array
   (valid only for the duration of the call — copy, don't keep). *)
let compile ~w ~(entry : int array) (ops : op list) ~(emit : int array -> unit) : unit -> unit =
  let rec build scratch = function
    | [] -> fun () -> emit scratch
    | Filter pred :: rest ->
      let next = build scratch rest in
      fun () -> if pred scratch then next ()
    | Project pos :: rest ->
      let n = Array.length pos in
      let out = Array.make n 0 in
      let next = build out rest in
      fun () ->
        for i = 0 to n - 1 do
          out.(i) <- scratch.(pos.(i))
        done;
        next ()
    | Probe { key_pos; extra_pos; probe } :: rest ->
      let probe = probe w in
      let base = Array.length scratch in
      let nk = Array.length key_pos and ne = Array.length extra_pos in
      let out = Array.make (base + ne) 0 in
      let next = build out rest in
      let key = Array.make nk 0 in
      fun () ->
        for i = 0 to nk - 1 do
          key.(i) <- scratch.(key_pos.(i))
        done;
        (match probe key with
        | [] -> ()
        | matches ->
          Array.blit scratch 0 out 0 base;
          List.iter
            (fun rt ->
              for j = 0 to ne - 1 do
                out.(base + j) <- rt.(extra_pos.(j))
              done;
              next ())
            matches)
    | Antiprobe { key_pos; mem } :: rest ->
      let mem = mem w in
      let next = build scratch rest in
      let nk = Array.length key_pos in
      let key = Array.make nk 0 in
      fun () ->
        for i = 0 to nk - 1 do
          key.(i) <- scratch.(key_pos.(i))
        done;
        if not (mem key) then next ()
  in
  build entry ops
