module Codec = Report.Codec

type t = {
  version : int;
  sut : string;
  predicate : string;
  properties : string list;
  seed : int;
  counterexample : Checker.counterexample;
}

let version = 1

let kind = "rrfd-counterexample"

let make ~sut_spec ~predicate_spec ~property_specs ~seed counterexample =
  {
    version;
    sut = sut_spec;
    predicate = predicate_spec;
    properties = property_specs;
    seed;
    counterexample;
  }

(* The counterexample's own fields, flat in the artifact object; its
   [sut] is the artifact's spec string, read back by [codec]. *)
let counterexample =
  Codec.(
    record (fun trial shrink_steps n inputs history property failure decisions ->
        {
          Checker.sut = "";
          n;
          inputs;
          history;
          property;
          failure;
          decisions;
          trial;
          shrink_steps;
        })
    |> field "trial" int (fun ce -> ce.Checker.trial)
    |> field "shrink_steps" int (fun ce -> ce.Checker.shrink_steps)
    |> field "n" int (fun (ce : Checker.counterexample) -> ce.n)
    |> field "inputs" (array int) (fun ce -> ce.Checker.inputs)
    |> field "history" history (fun ce -> ce.Checker.history)
    |> field "property" string (fun ce -> ce.Checker.property)
    |> field "failure" string (fun ce -> ce.Checker.failure)
    |> field "decisions" decisions (fun ce -> ce.Checker.decisions)
    |> obj)

let codec =
  Codec.(
    record (fun sut predicate properties seed ce ->
        let counterexample = { ce with Checker.sut } in
        { version; sut; predicate; properties; seed; counterexample })
    |> header ~kind ~version
    |> field "sut" string (fun t -> t.sut)
    |> field "predicate" string (fun t -> t.predicate)
    |> field "properties" (list string) (fun t -> t.properties)
    |> field "seed" int (fun t -> t.seed)
    |> inline counterexample (fun t -> t.counterexample)
    |> obj)

(* Recordings: the same artifact format, written by an observation run
   (live --record) rather than a property refutation.  The decision
   vector is computed through [Checker.test_history] — the exact code
   path [replay] will take — so a recording round-trips by construction;
   an empty [failure] marks that the replay is expected to pass. *)
let record ~sut_spec ?(predicate_spec = "true") ?(seed = 0) ~n ~history () =
  Result.bind (Spec.sut sut_spec) (fun sut ->
      Result.bind (Spec.predicate predicate_spec) (fun predicate ->
          let obs, _ = Checker.test_history ~sut ~predicate ~properties:[] history in
          match obs.Property.violation with
          | Some v ->
            Error
              (Printf.sprintf
                 "refusing to record: history violates %s on replay (%s)"
                 predicate_spec v)
          | None ->
            Ok
              {
                version;
                sut = sut_spec;
                predicate = predicate_spec;
                properties = [];
                seed;
                counterexample =
                  {
                    Checker.sut = Sut.name sut;
                    n;
                    inputs = Sut.default_inputs ~n;
                    history;
                    property = "";
                    failure = "";
                    decisions = obs.Property.decisions;
                    trial = -1;
                    shrink_steps = 0;
                  };
              }))

type replay = {
  obs : Property.obs;
  failure : (string * string) option;
  failure_expected : bool;
  decisions_match : bool;
  transcript : string;
}

let collect_specs parse specs =
  List.fold_right
    (fun spec acc ->
      Result.bind acc (fun parsed ->
          Result.map (fun p -> p :: parsed) (parse spec)))
    specs (Ok [])

let replay t =
  Result.bind (Spec.sut t.sut) (fun sut ->
      Result.bind (Spec.predicate t.predicate) (fun predicate ->
          Result.bind (collect_specs Spec.property t.properties)
            (fun properties ->
              let history = t.counterexample.Checker.history in
              let obs, failure =
                Checker.test_history ~sut ~predicate ~properties history
              in
              Ok
                {
                  obs;
                  failure =
                    Option.map
                      (fun (p, msg) -> (Property.name p, msg))
                      failure;
                  failure_expected = t.counterexample.Checker.failure <> "";
                  decisions_match =
                    obs.Property.decisions = t.counterexample.Checker.decisions;
                  transcript = Sut.transcript sut ~check:predicate history;
                })))

let reproduced r =
  r.decisions_match && (r.failure <> None) = r.failure_expected
