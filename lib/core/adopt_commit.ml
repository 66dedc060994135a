type 'v vote = Commit_vote of 'v | Adopt_vote of 'v

type 'v outcome = Commit of 'v | Adopt of 'v

let value_of = function Commit v | Adopt v -> v

let is_commit = function Commit _ -> true | Adopt _ -> false

(* Both rules read what a process saw in one round in one fixed order:
   its own item first when the detector marks it late (self-inclusion:
   it knows its own round message through its local state), then every
   heard message in ascending sender order.  Index −1 of the loops below
   is that own item.  One pass each; no list is built. *)
let[@inline] first_index ~me view = if Pset.mem me (View.faulty view) then -1 else 0

let propose ~equal ~me ~own view value =
  let seen_any = ref false and first = ref own and agree = ref true in
  for j = first_index ~me view to View.n view - 1 do
    if j < 0 || View.mem view j then begin
      let v = if j < 0 then own else value (View.get view j) in
      if not !seen_any then begin
        seen_any := true;
        first := v
      end
      else if !agree && not (equal v !first) then agree := false
    end
  done;
  if !seen_any && !agree then Commit_vote !first else Adopt_vote own

let resolve ~equal ~me ~own ~own_vote view vote =
  (* [first]: the first committed value seen; [unanimous]: every vote seen
     so far commits [first]. *)
  let committed = ref false and first = ref own and unanimous = ref true in
  for j = first_index ~me view to View.n view - 1 do
    if j < 0 || View.mem view j then
      match if j < 0 then own_vote else vote (View.get view j) with
      | Commit_vote v ->
        if not !committed then begin
          committed := true;
          first := v
        end
        else if !unanimous && not (equal v !first) then unanimous := false
      | Adopt_vote _ -> unanimous := false
  done;
  if not !committed then Adopt own
  else if !unanimous then Commit !first
  else Adopt !first

type 'v message = Value of 'v | Vote of 'v vote

type 'v state = {
  me : Proc.t;
  input : 'v;
  vote : 'v vote option;
  result : 'v outcome option;
}

let algorithm ~inputs =
  {
    Algorithm.name = "adopt-commit";
    init =
      (fun ~n p ->
        if Array.length inputs <> n then
          invalid_arg "Adopt_commit.algorithm: inputs length mismatch";
        { me = p; input = inputs.(p); vote = None; result = None });
    emit =
      (fun s ~round ->
        match (round, s.vote) with
        | 1, _ -> Value s.input
        | _, Some vote -> Vote vote
        | _, None -> Value s.input);
    deliver =
      (fun s ~round ~view ->
        match round with
        | 1 ->
          let vote =
            propose ~equal:( = ) ~me:s.me ~own:s.input view (function
              | Value v -> v
              | Vote _ -> assert false)
          in
          { s with vote = Some vote }
        | 2 ->
          let own_vote = match s.vote with Some v -> v | None -> assert false in
          let result =
            resolve ~equal:( = ) ~me:s.me ~own:s.input ~own_vote view (function
              | Vote v -> v
              | Value _ -> assert false)
          in
          { s with result = Some result }
        | _ -> s);
    decide = (fun s -> s.result);
  }

let pp_outcome pp_v ppf = function
  | Commit v -> Format.fprintf ppf "commit %a" pp_v v
  | Adopt v -> Format.fprintf ppf "adopt %a" pp_v v

let check_outcomes ~inputs outcomes =
  let n = Array.length inputs in
  if Array.length outcomes <> n then
    invalid_arg "Adopt_commit.check_outcomes: length mismatch";
  let undecided = ref None in
  Array.iteri
    (fun i o -> if o = None && !undecided = None then undecided := Some i)
    outcomes;
  match !undecided with
  | Some i -> Some (Printf.sprintf "termination: p%d produced no outcome" i)
  | None ->
    let outcome i = Option.get outcomes.(i) in
    let invalid = ref None in
    for i = 0 to n - 1 do
      let v = value_of (outcome i) in
      if (not (Array.exists (fun w -> w = v) inputs)) && !invalid = None then
        invalid := Some (i, v)
    done;
    (match !invalid with
    | Some (i, _) -> Some (Printf.sprintf "validity: p%d output a non-input value" i)
    | None ->
      let first = inputs.(0) in
      let convergent = Array.for_all (fun v -> v = first) inputs in
      let all_commit_first =
        Array.for_all
          (fun i -> match outcome i with Commit v -> v = first | Adopt _ -> false)
          (Array.init n Fun.id)
      in
      if convergent && not all_commit_first then
        Some "convergence: identical inputs but some process did not commit"
      else
        let committed =
          Array.to_list outcomes
          |> List.filter_map (function
               | Some (Commit v) -> Some v
               | Some (Adopt _) | None -> None)
        in
        let agreement_broken =
          List.exists
            (fun v ->
              Array.exists
                (fun i -> value_of (outcome i) <> v)
                (Array.init n Fun.id))
            committed
        in
        if agreement_broken then
          Some "agreement: a committed value was not universally carried"
        else None)

let encode = function
  | Commit v ->
    if v < 0 then invalid_arg "Adopt_commit.encode: negative value";
    2 * v
  | Adopt v ->
    if v < 0 then invalid_arg "Adopt_commit.encode: negative value";
    (2 * v) + 1

let decode code =
  if code < 0 then invalid_arg "Adopt_commit.decode: negative code";
  if code land 1 = 0 then Commit (code asr 1) else Adopt (code asr 1)

let pp_encoded ppf code = pp_outcome Format.pp_print_int ppf (decode code)
