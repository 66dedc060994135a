(* Two representations behind one abstract type, discriminated by the
   runtime tag (the zarith idiom):

   - "small": an immediate int, one bit per process id in [0,62).  This
     is the original single-word bitset and stays allocation-free.
   - "wide": an [int array] of >= 2 words, {!bits_per_word} bits per
     word (bit [b] of word [w] encodes id [w * bits_per_word + b]), with
     a nonzero last word.

   The representation is canonical — every set has exactly one encoding
   (a value that fits one word is always small) — so structural equality
   coincides with set equality and [compare] is a total order.  All the
   set algebra is word-at-a-time, keeping per-round operations O(n/62)
   instead of O(n). *)

type t = Obj.t

let bits_per_word = 62

(* [1 lsl 62] wraps to [min_int] on 63-bit ints, so this is [max_int] =
   0x3FFF_FFFF_FFFF_FFFF — exactly the 62 low bits. *)
let word_mask = (1 lsl bits_per_word) - 1

(* Sanity bound, not a representation limit: wide sets grow by whole
   words, so this only caps absurd ids (and keeps error messages
   finite).  2^30 processes is far past any campaign we can run. *)
let max_universe = 1 lsl 30

let[@inline] is_small (s : t) = Obj.is_int s

let[@inline] of_small (x : int) : t = Obj.repr x

let[@inline] to_small (s : t) : int = Obj.obj s

let[@inline] of_words (a : int array) : t = Obj.repr a

let[@inline] to_words (s : t) : int array = Obj.obj s

let[@inline] nwords s = if is_small s then 1 else Array.length (to_words s)

(* Word [i] of either representation, 0 beyond the stored width. *)
let[@inline] word s i =
  if is_small s then if i = 0 then to_small s else 0
  else
    let a = to_words s in
    if i < Array.length a then a.(i) else 0

(* Canonicalise a freshly built word array: drop trailing zero words and
   collapse single-word values to the small representation. *)
let norm (a : int array) : t =
  let last = ref (Array.length a - 1) in
  while !last > 0 && a.(!last) = 0 do
    decr last
  done;
  if !last = 0 then of_small a.(0)
  else if !last = Array.length a - 1 then of_words a
  else of_words (Array.sub a 0 (!last + 1))

let empty = of_small 0

let check_id p =
  if p < 0 || p >= max_universe then
    invalid_arg (Printf.sprintf "Pset: process id %d out of [0,%d)" p max_universe)

let full n =
  if n < 0 || n > max_universe then
    invalid_arg
      (Printf.sprintf "Pset.full: size %d out of [0,%d]" n max_universe);
  if n <= bits_per_word then of_small (if n = 0 then 0 else (1 lsl n) - 1)
  else begin
    let k = (n + bits_per_word - 1) / bits_per_word in
    let a = Array.make k word_mask in
    let rem = n mod bits_per_word in
    if rem <> 0 then a.(k - 1) <- (1 lsl rem) - 1;
    of_words a
  end

let singleton p =
  check_id p;
  if p < bits_per_word then of_small (1 lsl p)
  else begin
    let w = p / bits_per_word in
    let a = Array.make (w + 1) 0 in
    a.(w) <- 1 lsl (p mod bits_per_word);
    of_words a
  end

let[@inline] add p s =
  check_id p;
  let w = p / bits_per_word and b = p mod bits_per_word in
  if is_small s && w = 0 then of_small (to_small s lor (1 lsl b))
  else begin
    let k = if w + 1 > nwords s then w + 1 else nwords s in
    let a = Array.init k (word s) in
    a.(w) <- a.(w) lor (1 lsl b);
    (* Canonical: either the last word was already nonzero, or [w] is the
       last word and we just set a bit in it. *)
    of_words a
  end

let remove p s =
  check_id p;
  let w = p / bits_per_word and b = p mod bits_per_word in
  if is_small s then
    if w = 0 then of_small (to_small s land lnot (1 lsl b)) else s
  else
    let a = to_words s in
    if w >= Array.length a then s
    else begin
      let a = Array.copy a in
      a.(w) <- a.(w) land lnot (1 lsl b);
      norm a
    end

let[@inline] mem p s =
  check_id p;
  if is_small s then p < bits_per_word && to_small s land (1 lsl p) <> 0
  else word s (p / bits_per_word) land (1 lsl (p mod bits_per_word)) <> 0

let of_list l =
  match l with
  | [] -> empty
  | _ ->
    let maxp =
      List.fold_left
        (fun m p ->
          check_id p;
          if p > m then p else m)
        0 l
    in
    if maxp < bits_per_word then
      of_small (List.fold_left (fun s p -> s lor (1 lsl p)) 0 l)
    else begin
      let a = Array.make ((maxp / bits_per_word) + 1) 0 in
      List.iter
        (fun p ->
          let w = p / bits_per_word in
          a.(w) <- a.(w) lor (1 lsl (p mod bits_per_word)))
        l;
      (* The word holding [maxp] is the last one and is nonzero. *)
      of_words a
    end

(* SWAR popcount over a 62-bit word.  The usual 64-bit constants are
   truncated to what fits an OCaml int; inputs never have bit 62 set, so
   the truncated first mask (0x5555.. with the two top bits dropped)
   still covers every bit position [x lsr 1] can occupy. *)
let[@inline] popcount x =
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

(* Index of the lowest set bit of a nonzero word, popcount-style ctz:
   [x land -x] isolates the bit, minus one masks everything below it. *)
let[@inline] ctz x = popcount ((x land -x) - 1)

let[@inline] cardinal s =
  if is_small s then popcount (to_small s)
  else Array.fold_left (fun acc w -> acc + popcount w) 0 (to_words s)

let[@inline] is_empty s = is_small s && to_small s = 0

let[@inline] union a b =
  if is_small a && is_small b then of_small (to_small a lor to_small b)
  else begin
    let k = if nwords a > nwords b then nwords a else nwords b in
    (* Canonical: the longer operand's last word is nonzero. *)
    of_words (Array.init k (fun i -> word a i lor word b i))
  end

let inter a b =
  if is_small a || is_small b then of_small (word a 0 land word b 0)
  else begin
    let k = if nwords a < nwords b then nwords a else nwords b in
    norm (Array.init k (fun i -> word a i land word b i))
  end

let[@inline] diff a b =
  (* A word holds only bits 0..61, so [land lnot] cannot introduce high
     bits: the result stays a valid 62-bit word. *)
  if is_small a then of_small (to_small a land lnot (word b 0))
  else norm (Array.mapi (fun i w -> w land lnot (word b i)) (to_words a))

let[@inline] subset a b =
  if is_small a then to_small a land lnot (word b 0) = 0
  else begin
    let aw = to_words a in
    let rec go i =
      i >= Array.length aw || (aw.(i) land lnot (word b i) = 0 && go (i + 1))
    in
    go 0
  end

let[@inline] equal a b =
  if is_small a then is_small b && to_small a = to_small b
  else if is_small b then false
  else begin
    let x = to_words a and y = to_words b in
    Array.length x = Array.length y
    &&
    let rec go i = i < 0 || (x.(i) = y.(i) && go (i - 1)) in
    go (Array.length x - 1)
  end

(* Total order: small sets before wide ones, wide sets by width then by
   most-significant word.  Consistent with canonical representations. *)
let compare a b =
  match (is_small a, is_small b) with
  | true, true -> Int.compare (to_small a) (to_small b)
  | true, false -> -1
  | false, true -> 1
  | false, false ->
    let x = to_words a and y = to_words b in
    let c = Int.compare (Array.length x) (Array.length y) in
    if c <> 0 then c
    else begin
      let rec go i =
        if i < 0 then 0
        else
          let c = Int.compare x.(i) y.(i) in
          if c <> 0 then c else go (i - 1)
      in
      go (Array.length x - 1)
    end

(* Index of the lowest set bit; undefined on empty (guarded by callers). *)
let lowest_index s =
  if is_small s then ctz (to_small s)
  else begin
    let a = to_words s in
    let rec go i =
      if a.(i) <> 0 then (i * bits_per_word) + ctz a.(i) else go (i + 1)
    in
    go 0
  end

(* Ascending iteration over one word's members, ids offset by [base]. *)
let iter_word f base w =
  let rec go w =
    if w <> 0 then begin
      f (base + ctz w);
      go (w land (w - 1))
    end
  in
  go w

let iter f s =
  if is_small s then iter_word f 0 (to_small s)
  else Array.iteri (fun i w -> iter_word f (i * bits_per_word) w) (to_words s)

let fold f s init =
  let acc = ref init in
  iter (fun p -> acc := f p !acc) s;
  !acc

let to_list s = List.rev (fold (fun p acc -> p :: acc) s [])

let for_all f s = fold (fun p acc -> acc && f p) s true

(* [f] is consulted once per member in ascending order — seeded callers
   (random_subset) rely on that exact consumption pattern. *)
let filter f s =
  if is_small s then begin
    let w = ref 0 in
    iter_word (fun p -> if f p then w := !w lor (1 lsl p)) 0 (to_small s);
    of_small !w
  end
  else begin
    let a = to_words s in
    let c = Array.make (Array.length a) 0 in
    Array.iteri
      (fun i w ->
        let base = i * bits_per_word in
        iter_word (fun p -> if f p then c.(i) <- c.(i) lor (1 lsl (p - base))) base w)
      a;
    norm c
  end

let min_elt s = if is_empty s then None else Some (lowest_index s)

let[@inline] lowest s = if is_empty s then -1 else lowest_index s

(* Index of the (i+1)-th set bit of [w]; requires [i < popcount w]. *)
let nth_in_word w i =
  let rec go w i =
    let b = ctz w in
    if i = 0 then b else go (w land (w - 1)) (i - 1)
  in
  go w i

let choose_nth s i =
  let card = cardinal s in
  if i < 0 || i >= card then
    invalid_arg (Printf.sprintf "Pset.choose_nth: index %d out of [0,%d)" i card);
  if is_small s then nth_in_word (to_small s) i
  else begin
    let a = to_words s in
    let rec go wi i =
      let c = popcount a.(wi) in
      if i < c then (wi * bits_per_word) + nth_in_word a.(wi) i
      else go (wi + 1) (i - c)
    in
    go 0 i
  end

(* One [Rng.bool] per member in ascending order.  The small-set fast
   path walks the word directly — bit-identical draw consumption to the
   [filter] spelling, without the closure and set-rebuild machinery. *)
let random_subset rng s =
  if is_small s then begin
    let w = ref (to_small s) in
    let out = ref 0 in
    while !w <> 0 do
      let bit = !w land - !w in
      if Dsim.Rng.bool rng then out := !out lor bit;
      w := !w land (!w - 1)
    done;
    of_small !out
  end
  else filter (fun _ -> Dsim.Rng.bool rng) s

let random_subset_of_size rng s k =
  let size = cardinal s in
  if k < 0 || k > size then
    invalid_arg
      (Printf.sprintf "Pset.random_subset_of_size: k %d out of [0,%d]" k size);
  (* Knuth selection sampling (algorithm S) inlined over the member rank,
     drawing exactly as [Rng.sample_without_replacement rng k size] would
     — same draws in the same order — but folding the chosen members
     straight into the set instead of materialising an index list.  The
     small-set path walks the word's bits ascending in one pass instead
     of rank-scanning with [choose_nth] per pick. *)
  if is_small s then begin
    let w = ref (to_small s) in
    let out = ref 0 in
    let remaining = ref k in
    let i = ref 0 in
    while !remaining > 0 do
      if size - !i = !remaining then begin
        (* Take every member not yet examined; no draws. *)
        out := !out lor !w;
        remaining := 0
      end
      else begin
        let bit = !w land - !w in
        if Dsim.Rng.int rng (size - !i) < !remaining then begin
          out := !out lor bit;
          decr remaining
        end;
        w := !w land (!w - 1);
        incr i
      end
    done;
    of_small !out
  end
  else begin
    let acc = ref empty in
    let remaining = ref k in
    let i = ref 0 in
    while !remaining > 0 do
      if size - !i = !remaining then begin
        for j = !i to size - 1 do
          acc := add (choose_nth s j) !acc
        done;
        remaining := 0
      end
      else begin
        if Dsim.Rng.int rng (size - !i) < !remaining then begin
          acc := add (choose_nth s !i) !acc;
          decr remaining
        end;
        incr i
      end
    done;
    !acc
  end

let subsets s =
  let elements = to_list s in
  List.fold_left
    (fun acc p -> List.concat_map (fun sub -> [ sub; add p sub ]) acc)
    [ empty ] elements

let pp ppf s =
  let elements = to_list s in
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Proc.pp)
    elements

let to_string s = Format.asprintf "%a" pp s
