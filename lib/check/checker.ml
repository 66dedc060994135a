type counterexample = {
  sut : string;
  n : int;
  inputs : int array;
  history : Rrfd.Fault_history.t;
  property : string;
  failure : string;
  decisions : int option array;
  trial : int;
  shrink_steps : int;
}

type fuzz_config = {
  n : int;
  rounds : int;
  trials : int;
  seed : int;
  jobs : int option;
  attempts : int;
}

(* A run that tripped the online predicate check blames the adversary,
   never the algorithm. *)
let verdict ~properties obs =
  match obs.Property.violation with
  | Some _ -> None
  | None -> Property.first_failure properties obs

let test_history ~sut ~predicate ~properties history =
  let obs = Sut.run_history sut ~check:predicate history in
  (obs, verdict ~properties obs)

let live_trial ~sut ~predicate ~properties ~n ~rounds detector =
  let obs = Sut.run_padded sut ~n ~rounds ~check:predicate ~detector in
  let history = obs.Property.history in
  let drawn =
    if Rrfd.Fault_history.rounds history > rounds then
      Rrfd.Fault_history.truncate history ~rounds
    else history
  in
  (drawn, obs, verdict ~properties obs)

(* Shrink a raw failing history and package the result.  Re-runs the SUT on
   the minimal history one last time so the recorded failure message and
   decision vector describe exactly what the artifact will replay. *)
let finish ~sut ~predicate ~properties ~trial raw =
  let still_fails h =
    snd (test_history ~sut ~predicate ~properties h) <> None
  in
  let history, shrink_steps = Shrink.minimize ~satisfying:predicate ~still_fails raw in
  let obs, failure = test_history ~sut ~predicate ~properties history in
  match failure with
  | None ->
    (* [minimize] only accepts still-failing candidates and [raw] failed, so
       the fixed point must fail too. *)
    assert false
  | Some (prop, msg) ->
    {
      sut = Sut.name sut;
      n = obs.Property.n;
      inputs = obs.Property.inputs;
      (* Record the executed history, not the shrunk input: replay pads a
         short history with failure-free rounds up to the SUT's horizon
         ({!Sut.run_history}), and the artifact should show exactly the
         rounds that ran. *)
      history = obs.Property.history;
      property = Property.name prop;
      failure = msg;
      decisions = obs.Property.decisions;
      trial;
      shrink_steps;
    }

let fuzz config ~sut ~predicate ?generator ~properties () =
  (* The candidate carries its own trial index so the artifact can name the
     exact stream a reader needs to reproduce the raw (pre-shrink) find. *)
  let candidate ~trial ~rng =
    match generator with
    | None -> (
      match
        Gen.history ~attempts:config.attempts rng ~n:config.n
          ~rounds:config.rounds ~satisfying:predicate
      with
      | Some h when snd (test_history ~sut ~predicate ~properties h) <> None ->
        Some (trial, h)
      | _ -> None)
    | Some gen -> (
      (* Constructive sampling: run the SUT live under the generated
         detector and judge that run; the engine's online check guards
         against a generator straying off its predicate. *)
      match
        live_trial ~sut ~predicate ~properties ~n:config.n
          ~rounds:config.rounds (gen rng ~n:config.n)
      with
      | drawn, _, Some _ -> Some (trial, drawn)
      | _, _, None -> None)
  in
  Runtime.Campaign.search ?jobs:config.jobs ~seed:config.seed
    ~trials:config.trials candidate
  |> Option.map (fun (trial, raw) ->
         finish ~sut ~predicate ~properties ~trial raw)

let exhaustive ?jobs ~n ~rounds ~sut ~predicate ~properties () =
  let fails h = snd (test_history ~sut ~predicate ~properties h) <> None in
  let raw =
    if rounds = 0 then begin
      let empty = Rrfd.Fault_history.empty ~n in
      if Rrfd.Predicate.holds predicate empty && fails empty then Some empty
      else None
    end
    else begin
      (* Shard by first-round assignment: each domain owns the subtree under
         one assignment, and Pool.search keeps "first counterexample" equal
         to the serial enumeration order at every -j. *)
      let tops = Array.of_list (Rrfd.Submodel.round_assignments ~n) in
      Runtime.Pool.search ?jobs ~n:(Array.length tops) (fun idx ->
          let prefix = Rrfd.Fault_history.of_rounds ~n [ tops.(idx) ] in
          if not (Rrfd.Predicate.holds predicate prefix) then None
          else
            Adversary.Enumerate.find_extension ~prefix ~rounds
              ~satisfying:predicate ~f:fails)
    end
  in
  Option.map (fun raw -> finish ~sut ~predicate ~properties ~trial:(-1) raw) raw
