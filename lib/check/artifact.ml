module Json = Report.Json

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

let decisions_to_json decisions =
  Json.List
    (Array.to_list decisions
    |> List.map (function
         | None -> Json.Null
         | Some v -> Json.Number (float_of_int v)))

let decisions_of_json json =
  Json.list json
  |> List.map (function Json.Null -> None | j -> Some (Json.int j))
  |> Array.of_list

let to_json t =
  let ce = t.counterexample in
  Json.Obj
    [
      ("version", Json.Number (float_of_int t.version));
      ("kind", Json.String kind);
      ("sut", Json.String t.sut);
      ("predicate", Json.String t.predicate);
      ("properties", Json.List (List.map (fun p -> Json.String p) t.properties));
      ("seed", Json.Number (float_of_int t.seed));
      ("trial", Json.Number (float_of_int ce.Checker.trial));
      ("shrink_steps", Json.Number (float_of_int ce.Checker.shrink_steps));
      ("n", Json.Number (float_of_int ce.Checker.n));
      ( "inputs",
        Json.List
          (Array.to_list ce.Checker.inputs
          |> List.map (fun v -> Json.Number (float_of_int v))) );
      ( "history",
        Json.String (Rrfd.Fault_history.to_string_compact ce.Checker.history) );
      ("property", Json.String ce.Checker.property);
      ("failure", Json.String ce.Checker.failure);
      ("decisions", decisions_to_json ce.Checker.decisions);
    ]

let decode json =
  Report.require_header ~kind ~version json;
  let history =
    Rrfd.Fault_history.of_string_compact (Json.str (Json.member "history" json))
  in
  {
    version;
    sut = Json.str (Json.member "sut" json);
    predicate = Json.str (Json.member "predicate" json);
    properties = List.map Json.str (Json.list (Json.member "properties" json));
    seed = Json.int (Json.member "seed" json);
    counterexample =
      {
        Checker.sut = Json.str (Json.member "sut" json);
        n = Json.int (Json.member "n" json);
        inputs =
          Json.list (Json.member "inputs" json)
          |> List.map Json.int |> Array.of_list;
        history;
        property = Json.str (Json.member "property" json);
        failure = Json.str (Json.member "failure" json);
        decisions = decisions_of_json (Json.member "decisions" json);
        trial = Json.int (Json.member "trial" json);
        shrink_steps = Json.int (Json.member "shrink_steps" json);
      };
  }

let of_json = Report.decoding decode

let save path t = Report.write ~pretty:true path (to_json t)

let load = Report.read of_json

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
