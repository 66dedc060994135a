type packed =
  | Packed : {
      pp_msg : Format.formatter -> 'm -> unit;
      algorithm : inputs:int array -> f:int -> ('s, 'm, int) Rrfd.Algorithm.t;
    }
      -> packed

type t = {
  name : string;
  horizon : n:int -> f:int -> int;
  default_n : int;
  default_f : n:int -> int;
  pp_out : Format.formatter -> int -> unit;
  properties : string list;
  faults : string list;
  packed : packed;
}

let name t = t.name

let horizon t = t.horizon

let default_n t = t.default_n

let default_f t = t.default_f

let pp_out t = t.pp_out

let properties t = t.properties

let default_inputs ~n = Tasks.Inputs.distinct n

(* The agreement defaults mirror what the checker historically assumed:
   consensus-flavoured protocols answer to termination/validity/agreement,
   adopt-commit to its own coherence property. *)
let consensus_properties = [ "termination"; "validity"; "agreement" ]

let pp_int_list ppf l =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
       Format.pp_print_int)
    l

let pp_adopt_commit_msg ppf = function
  | Rrfd.Adopt_commit.Value v -> Format.fprintf ppf "value %d" v
  | Rrfd.Adopt_commit.Vote (Rrfd.Adopt_commit.Commit_vote v) ->
    Format.fprintf ppf "commit-vote %d" v
  | Rrfd.Adopt_commit.Vote (Rrfd.Adopt_commit.Adopt_vote v) ->
    Format.fprintf ppf "adopt-vote %d" v

let all =
  [
    {
      name = "kset-one-round";
      horizon = (fun ~n:_ ~f:_ -> 1);
      default_n = 4;
      default_f = (fun ~n:_ -> 1);
      pp_out = Format.pp_print_int;
      properties = consensus_properties;
      faults = [ "crash"; "omission" ];
      packed =
        Packed
          {
            pp_msg = Format.pp_print_int;
            algorithm = (fun ~inputs ~f:_ -> Rrfd.Kset.one_round ~inputs);
          };
    };
    {
      name = "consensus";
      horizon = (fun ~n:_ ~f:_ -> 1);
      default_n = 4;
      default_f = (fun ~n:_ -> 1);
      pp_out = Format.pp_print_int;
      properties = consensus_properties;
      faults = [ "crash"; "omission" ];
      packed =
        Packed
          {
            pp_msg = Format.pp_print_int;
            algorithm = (fun ~inputs ~f:_ -> Rrfd.Kset.consensus ~inputs);
          };
    };
    {
      name = "kset-snapshot";
      horizon = (fun ~n:_ ~f:_ -> 1);
      default_n = 4;
      default_f = (fun ~n:_ -> 1);
      pp_out = Format.pp_print_int;
      properties = consensus_properties;
      faults = [ "crash"; "omission" ];
      packed =
        Packed
          {
            pp_msg = Format.pp_print_int;
            algorithm = (fun ~inputs ~f:_ -> Rrfd.Kset.one_round ~inputs);
          };
    };
    {
      name = "adopt-commit";
      horizon = (fun ~n:_ ~f:_ -> 2);
      default_n = 4;
      default_f = (fun ~n:_ -> 1);
      pp_out = Rrfd.Adopt_commit.pp_encoded;
      properties = [ "adopt-commit" ];
      faults = [ "crash"; "omission" ];
      packed =
        Packed
          {
            pp_msg = pp_adopt_commit_msg;
            algorithm =
              (fun ~inputs ~f:_ ->
                Rrfd.Algorithm.map_output Rrfd.Adopt_commit.encode
                  (Rrfd.Adopt_commit.algorithm ~inputs));
          };
    };
    {
      name = "phased-consensus";
      horizon =
        (fun ~n:_ ~f:_ -> Rrfd.Phased_consensus.rounds_needed ~stabilize_at:1);
      default_n = 4;
      default_f = (fun ~n -> n - 1);
      pp_out = Format.pp_print_int;
      properties = consensus_properties;
      faults = [ "crash"; "omission" ];
      packed =
        Packed
          {
            pp_msg =
              (fun ppf _ -> Format.pp_print_string ppf "<phased-msg>");
            algorithm =
              (fun ~inputs ~f:_ -> Rrfd.Phased_consensus.algorithm ~inputs);
          };
    };
    {
      name = "early-deciding";
      horizon = (fun ~n:_ ~f -> f + 1);
      default_n = 4;
      default_f = (fun ~n:_ -> 1);
      pp_out = Format.pp_print_int;
      properties = consensus_properties;
      faults = [ "crash" ];
      packed =
        Packed
          {
            pp_msg = pp_int_list;
            algorithm =
              (fun ~inputs ~f -> Syncnet.Early_deciding.algorithm ~inputs ~f);
          };
    };
    {
      name = "flood-consensus";
      horizon = (fun ~n:_ ~f -> f + 1);
      default_n = 4;
      default_f = (fun ~n:_ -> 1);
      pp_out = Format.pp_print_int;
      properties = consensus_properties;
      faults = [ "crash" ];
      packed =
        Packed
          {
            pp_msg = pp_int_list;
            algorithm = (fun ~inputs ~f -> Syncnet.Flood.consensus ~inputs ~f);
          };
    };
    {
      name = "byz-vote";
      horizon = (fun ~n:_ ~f:_ -> 2);
      default_n = 4;
      default_f = (fun ~n:_ -> 1);
      pp_out = Format.pp_print_int;
      (* No termination: the vote legitimately abstains whenever the
         first n−f votes disagree — safety without liveness, which is
         the point of an accountable decision rule. *)
      properties = [ "validity"; "agreement" ];
      faults = [ "crash"; "byzantine" ];
      packed =
        Packed
          {
            pp_msg = Rrfd.Quorum_vote.pp_msg;
            algorithm = (fun ~inputs ~f -> Rrfd.Quorum_vote.algorithm ~inputs ~f);
          };
    };
  ]

let names = List.map (fun t -> t.name) all

let find name_ = List.find_opt (fun t -> String.equal t.name name_) all

let find_exn name_ =
  match find name_ with
  | Some t -> t
  | None ->
    invalid_arg
      (Printf.sprintf "Catalog.find_exn: unknown protocol %S (have: %s)" name_
         (String.concat ", " names))

(* {2 Substrate runners}

   The algorithm's state and message types are existential, so the only way
   out of the catalog is to run: each runner instantiates the algorithm
   once and hands it to its substrate's runner. *)

let inputs_or ~n = function Some i -> i | None -> default_inputs ~n

let rounds_or t ~n ~f = function Some r -> r | None -> t.horizon ~n ~f

let run_engine t ?inputs ?check ?stop_when_decided ?max_rounds ~n ~f
    ~detector () =
  let (Packed p) = t.packed in
  Rrfd.Engine.run ~n ?max_rounds ?check ?stop_when_decided
    ~algorithm:(p.algorithm ~inputs:(inputs_or ~n inputs) ~f)
    ~detector ()

let run_sync t ?inputs ?rounds ~n ~f ~pattern () =
  let (Packed p) = t.packed in
  Syncnet.Sync_net.run ~n ~rounds:(rounds_or t ~n ~f rounds) ~pattern
    ~algorithm:(p.algorithm ~inputs:(inputs_or ~n inputs) ~f)
    ()

let run_msgnet t ?inputs ?crashes ?adversary ?rounds ~seed ~n ~f () =
  let (Packed p) = t.packed in
  Msgnet.Round_layer.execution
    (Msgnet.Round_layer.run ~seed ?crashes ?adversary ~n ~f
       ~rounds:(rounds_or t ~n ~f rounds)
       ~algorithm:(p.algorithm ~inputs:(inputs_or ~n inputs) ~f)
       ())

let run_live t ?inputs ?patience ?rounds ~n ~f () =
  let (Packed p) = t.packed in
  Live.run ?patience ~n ~f ~rounds:(rounds_or t ~n ~f rounds)
    ~algorithm:(p.algorithm ~inputs:(inputs_or ~n inputs) ~f)
    ()

(* Pinned replay: the differential oracle.  The engine runs the history's
   detector ({!Rrfd.Detector.of_history}) for exactly the history's length
   without early stopping, so the replay's induced history is the input
   history bit-for-bit and the decisions are those of the lock-step
   execution the history describes. *)
let replay t ?inputs ?check ~f ~history () =
  run_engine t ?inputs ?check ~stop_when_decided:false
    ~max_rounds:(Rrfd.Fault_history.rounds history)
    ~n:(Rrfd.Fault_history.n history) ~f
    ~detector:(Rrfd.Detector.of_history history) ()

let transcript t ?inputs ?check ~n ~f ~max_rounds ~detector () =
  let (Packed p) = t.packed in
  let trace =
    Rrfd.Trace.record ~n ~max_rounds ?check ~pp_msg:p.pp_msg
      ~algorithm:(p.algorithm ~inputs:(inputs_or ~n inputs) ~f)
      ~detector ()
  in
  ( Format.asprintf "@[<v>%a@]" (Rrfd.Trace.pp t.pp_out) trace,
    trace.Rrfd.Trace.outcome )
