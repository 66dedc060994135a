type entry = {
  id : string;
  title : string;
  run :
    seed:int ->
    trials:int option ->
    jobs:int option ->
    Table.t * (string * Report.Json.t) option;
}

let default_seed = 0

(* Serial experiments ignore [jobs]; campaign-backed ones fan their trials
   out over that many domains (None = all cores) with the table guaranteed
   identical either way.  [with_field] experiments also return their
   artifact's extra field. *)
let wrap f ~seed ~trials ~jobs:_ = (f ~seed ?trials (), None)

let wrap_campaign f ~seed ~trials ~jobs = (f ~seed ?trials ?jobs (), None)

let with_field f ~seed ~trials ~jobs =
  let table, field = f ~seed ?trials ?jobs () in
  (table, Some field)

let all =
  [
    {
      id = "E1";
      title = "synchronous models (items 1-2)";
      run = wrap E01_sync_models.run;
    };
    {
      id = "E2";
      title = "asynchronous message passing (item 3)";
      run = wrap E02_async_mp.run;
    };
    {
      id = "E3";
      title = "shared memory (item 4)";
      run = wrap E03_shared_memory.run;
    };
    {
      id = "E4";
      title = "atomic snapshot / IIS (item 5)";
      run = wrap E04_snapshot_iis.run;
    };
    { id = "E5"; title = "detector S (item 6)"; run = wrap E05_detector_s.run };
    {
      id = "E6";
      title = "one-round k-set agreement (Thm 3.1)";
      run = wrap_campaign E06_kset_one_round.run;
    };
    {
      id = "E7";
      title = "k-set agreement with k-1 failures (Cor 3.2)";
      run = wrap E07_kset_snapshot.run;
    };
    {
      id = "E8";
      title = "k-set object implements the k-set RRFD (Thm 3.3)";
      run = wrap E08_kset_object.run;
    };
    {
      id = "E9";
      title = "round lower bound (Cor 4.2/4.4)";
      run = wrap_campaign E09_lower_bound.run;
    };
    {
      id = "E10";
      title = "adopt-commit (Sec. 4.2)";
      run = wrap E10_adopt_commit.run;
    };
    {
      id = "E11";
      title = "crash-fault simulation (Thm 4.3)";
      run = wrap_campaign E11_crash_simulation.run;
    };
    {
      id = "E12";
      title = "2-step semi-synchronous consensus (Thm 5.1)";
      run = wrap E12_semisync.run;
    };
    {
      id = "E13";
      title = "submodel lattice (Sec. 2)";
      run = wrap E13_lattice.run;
    };
    {
      id = "E14";
      title = "known-by-all conjecture (item 4)";
      run = wrap_campaign E14_conjecture.run;
    };
    {
      id = "E15";
      title = "ABD atomic registers from message passing (item 4's [22])";
      run = wrap E15_abd.run;
    };
    {
      id = "E16";
      title = "classic failure-detector consensus (Secs. 6-7)";
      run = wrap E16_classic_detector.run;
    };
    {
      id = "E17";
      title = "early-deciding ablation on the round lower bound";
      run = wrap E17_early_deciding.run;
    };
    {
      id = "E18";
      title = "phased consensus under eventual stability (Sec. 7 program)";
      run = wrap E18_phased.run;
    };
    {
      id = "E19";
      title = "the BG simulation behind Sec. 4's impossibility transfer";
      run = wrap E19_bg.run;
    };
    {
      id = "E21";
      title = "fault-injection adversaries and the heard-of bridge";
      run = with_field E21_faultnet.run;
    };
    {
      id = "E22";
      title = "cross-substrate differential matrix";
      run = with_field E22_xsub.run;
    };
    {
      id = "E23";
      title = "live-substrate heard-of predicate rates";
      run = wrap_campaign E23_live.run;
    };
    {
      id = "E24";
      title = "Byzantine round-machines and fork accountability";
      run = with_field E24_byzantine.run;
    };
    {
      id = "E25";
      title = "large-n scaling campaigns on the wide Pset";
      run = wrap_campaign E25_scale.run;
    };
    {
      id = "E26";
      title = "derived heard-of predicates from adversary policies";
      run = with_field E26_derive.run;
    };
  ]

let find id =
  let target = String.lowercase_ascii id in
  List.find_opt (fun e -> String.lowercase_ascii e.id = target) all
