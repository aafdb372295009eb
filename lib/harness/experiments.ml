type suite = {
  budget : int;
  seed : int;
  varity : Campaign.outcome;
  direct : Campaign.outcome;
  grammar : Campaign.outcome;
  llm4fp : Campaign.outcome;
  bandit : Campaign.outcome;
}

let run_suite ?(budget = 1000) ?(jobs = 1) ~seed () =
  let sub k = seed + (k * 7919) in
  let campaign (k, approach) =
    Obs.Span.with_span
      ("campaign." ^ String.lowercase_ascii (Approach.name approach))
      (fun () -> Campaign.run ~budget ~seed:(sub k) approach)
  in
  (* The five campaigns draw from decorrelated seed streams and share no
     mutable state beyond the domain-safe observability layer, so they
     fan out across the pool as independent units. *)
  match
    Exec.Pool.map ~jobs campaign
      [ (1, Approach.Varity); (2, Approach.Direct_prompt);
        (3, Approach.Grammar_guided); (4, Approach.Llm4fp);
        (5, Approach.Bandit) ]
  with
  | [ varity; direct; grammar; llm4fp; bandit ] ->
    { budget; seed; varity; direct; grammar; llm4fp; bandit }
  | _ -> assert false

let outcome suite = function
  | Approach.Varity -> suite.varity
  | Approach.Direct_prompt -> suite.direct
  | Approach.Grammar_guided -> suite.grammar
  | Approach.Llm4fp -> suite.llm4fp
  | Approach.Bandit -> suite.bandit

let outcomes suite =
  [ suite.varity; suite.direct; suite.grammar; suite.llm4fp ]

(* ----------------------------------------------------------------- *)

(* Every table is built as data first — title, header, rows — so the
   text rendering and the CSV export are two views of one computation
   (table3's CodeBLEU pass in particular must not run twice). *)
type tabular = {
  tab_title : string;
  tab_header : string list;
  tab_align : Report.Table.align list option;
  tab_rows : string list list;
}

let render_tabular t =
  match t.tab_align with
  | Some align ->
    Report.Table.render ~title:t.tab_title ~header:t.tab_header ~align
      t.tab_rows
  | None -> Report.Table.render ~title:t.tab_title ~header:t.tab_header t.tab_rows

let csv_tabular t = Report.Table.to_csv ~header:t.tab_header t.tab_rows

let table1_data () =
  let rows =
    Array.to_list Compiler.Optlevel.all
    |> List.map (fun level ->
           [ Compiler.Optlevel.name level;
             Compiler.Optlevel.host_flags level;
             Compiler.Optlevel.nvcc_flags level ])
  in
  {
    tab_title = "Table 1: Optimization Levels and Compiler Flags";
    tab_header = [ "Level"; "gcc/clang"; "nvcc" ];
    tab_align = Some [ Report.Table.Left; Report.Table.Left; Report.Table.Left ];
    tab_rows = rows;
  }

let table1 () = render_tabular (table1_data ())

let table2_data suite =
  let rows =
    outcomes suite
    |> List.map (fun (o : Campaign.outcome) ->
           [ Approach.name o.approach;
             Report.Table.pct (Difftest.Stats.inconsistency_rate o.stats);
             Report.Table.commas (Difftest.Stats.total_inconsistencies o.stats);
             Util.Sim_clock.hms o.sim_seconds ])
  in
  {
    tab_title =
      "Table 2: Numerical inconsistencies and time cost (simulated \
       hh:mm:ss)";
    tab_header = [ "Approach"; "Incons. Rate"; "# Incons."; "Time Cost" ];
    tab_align = None;
    tab_rows = rows;
  }

let table2 suite = render_tabular (table2_data suite)

let table3_data ?max_pairs ?(jobs = 1) suite =
  (* Diversity scoring is the one post-campaign stage heavy enough to
     matter (O(pairs) CodeBLEU): fan the four independent corpora across
     the pool. *)
  let rows =
    Exec.Pool.map ~jobs
      (fun (o : Campaign.outcome) ->
        let codebleu =
          Obs.Span.with_span "diversity.codebleu" (fun () ->
              Diversity.Codebleu.corpus_mean ?max_pairs ~seed:suite.seed
                o.programs)
        in
        let clones = Diversity.Clones.analyze o.programs in
        [ Approach.name o.approach;
          Printf.sprintf "%.4f" codebleu;
          string_of_int clones.Diversity.Clones.type1;
          string_of_int clones.Diversity.Clones.type2;
          string_of_int clones.Diversity.Clones.type2c;
          Printf.sprintf "%.2f%%" (Diversity.Clones.percentage clones) ])
      (outcomes suite)
  in
  {
    tab_title =
      "Table 3: Program diversity (lower CodeBLEU is better; clone types \
       1 / 2 / 2c)";
    tab_header = [ "Approach"; "CodeBLEU"; "1"; "2"; "2c"; "Percentage" ];
    tab_align = None;
    tab_rows = rows;
  }

let table3 ?max_pairs ?jobs suite =
  render_tabular (table3_data ?max_pairs ?jobs suite)

(* ----------------------------------------------------------------- *)

let class_pair_columns =
  [ (Fp.Bits.Real, Fp.Bits.Real);
    (Fp.Bits.Real, Fp.Bits.Zero);
    (Fp.Bits.Real, Fp.Bits.Pos_inf);
    (Fp.Bits.Real, Fp.Bits.Neg_inf);
    (Fp.Bits.Real, Fp.Bits.Nan);
    (Fp.Bits.Zero, Fp.Bits.Pos_inf);
    (Fp.Bits.Zero, Fp.Bits.Neg_inf);
    (Fp.Bits.Zero, Fp.Bits.Nan);
    (Fp.Bits.Pos_inf, Fp.Bits.Neg_inf);
    (Fp.Bits.Pos_inf, Fp.Bits.Nan);
    (Fp.Bits.Neg_inf, Fp.Bits.Nan) ]

let dash n = if n = 0 then "-" else Report.Table.commas n

let figure3_data suite =
  let count stats pair = Difftest.Stats.class_pair_count stats pair in
  let rows =
    class_pair_columns
    |> List.filter_map (fun pair ->
           let v = count suite.varity.Campaign.stats pair in
           let l = count suite.llm4fp.Campaign.stats pair in
           if v = 0 && l = 0 then None
           else
             Some
               [ Fp.Bits.class_pair_name (fst pair) (snd pair);
                 dash v; dash l ])
  in
  {
    tab_title =
      "Figure 3: Inconsistency counts of different kinds between two \
       compilers (VARITY vs. LLM4FP)";
    tab_header = [ "Kind"; "VARITY"; "LLM4FP" ];
    tab_align = None;
    tab_rows = rows;
  }

let figure3 suite = render_tabular (figure3_data suite)

let table4_data suite =
  let stats = suite.llm4fp.Campaign.stats in
  let present =
    class_pair_columns
    |> List.filter (fun pair -> Difftest.Stats.class_pair_count stats pair > 0)
  in
  let rows =
    Array.to_list Compiler.Optlevel.all
    |> List.map (fun level ->
           Compiler.Optlevel.name level
           :: List.map
                (fun pair ->
                  dash (Difftest.Stats.class_pair_count stats ~level pair))
                present)
  in
  let total_row =
    [ "Total Inconsistencies";
      Report.Table.commas (Difftest.Stats.total_inconsistencies stats) ]
  in
  {
    tab_title =
      "Table 4: Inconsistency counts for LLM4FP across optimization \
       levels (\"-\" = category did not appear)";
    tab_header =
      "Optimization Level"
      :: List.map (fun (a, b) -> Fp.Bits.class_pair_name a b) present;
    tab_align = None;
    tab_rows = rows @ [ total_row ];
  }

let table4 suite = render_tabular (table4_data suite)

(* ----------------------------------------------------------------- *)

let table5_data suite =
  let cell (o : Campaign.outcome) pair level =
    let stats = o.Campaign.stats in
    let count = Difftest.Stats.cross_count stats ~pair ~level in
    if count = 0 then "-"
    else
      let rate =
        float_of_int count
        /. float_of_int (Difftest.Stats.total_comparisons stats)
      in
      Printf.sprintf "%s %s" (Report.Table.pct rate)
        (Fp.Digits.Acc.to_string (Difftest.Stats.cross_digits stats ~pair ~level))
  in
  let pair_names = List.map Compiler.Personality.pair_name Compiler.Personality.pairs in
  let header =
    "Level"
    :: (List.map (fun p -> "V: " ^ p) pair_names
       @ List.map (fun p -> "L: " ^ p) pair_names)
  in
  let rows =
    Array.to_list Compiler.Optlevel.all
    |> List.map (fun level ->
           Compiler.Optlevel.name level
           :: (List.map (fun pair -> cell suite.varity pair level) [ 0; 1; 2 ]
              @ List.map (fun pair -> cell suite.llm4fp pair level) [ 0; 1; 2 ]))
  in
  let total (o : Campaign.outcome) pair =
    let stats = o.Campaign.stats in
    let count = Difftest.Stats.pair_total stats ~pair in
    if count = 0 then "-"
    else
      Report.Table.pct
        (float_of_int count
        /. float_of_int (Difftest.Stats.total_comparisons stats))
  in
  let total_row =
    "Total"
    :: (List.map (total suite.varity) [ 0; 1; 2 ]
       @ List.map (total suite.llm4fp) [ 0; 1; 2 ])
  in
  {
    tab_title =
      "Table 5: Inconsistency rates and digit differences (min/max/avg) \
       across compiler pairs at each optimization level (V = VARITY, \
       L = LLM4FP)";
    tab_header = header;
    tab_align = None;
    tab_rows = rows @ [ total_row ];
  }

let table5 suite = render_tabular (table5_data suite)

let table6_data suite =
  let cell (o : Campaign.outcome) personality level =
    if level = Compiler.Optlevel.O0_nofma then "-"
    else
      let stats = o.Campaign.stats in
      let count = Difftest.Stats.within_count stats personality level in
      if count = 0 then "-"
      else
        Report.Table.pct
          (float_of_int count
          /. float_of_int (Difftest.Stats.within_comparisons stats))
  in
  let personalities = Array.to_list Compiler.Personality.all in
  let header =
    "Level"
    :: (List.map (fun p -> "V: " ^ Compiler.Personality.name p) personalities
       @ List.map (fun p -> "L: " ^ Compiler.Personality.name p) personalities)
  in
  let rows =
    Array.to_list Compiler.Optlevel.all
    |> List.filter (fun level -> level <> Compiler.Optlevel.O0_nofma)
    |> List.map (fun level ->
           Compiler.Optlevel.name level
           :: (List.map (fun p -> cell suite.varity p level) personalities
              @ List.map (fun p -> cell suite.llm4fp p level) personalities))
  in
  let total (o : Campaign.outcome) personality =
    let stats = o.Campaign.stats in
    let count = Difftest.Stats.within_total stats personality in
    if count = 0 then "-"
    else
      Report.Table.pct
        (float_of_int count
        /. float_of_int (Difftest.Stats.within_comparisons stats))
  in
  let total_row =
    "Total"
    :: (List.map (total suite.varity) personalities
       @ List.map (total suite.llm4fp) personalities)
  in
  {
    tab_title =
      "Table 6: Inconsistency rates between any optimization level and \
       00_nofma (V = VARITY, L = LLM4FP)";
    tab_header = header;
    tab_align = None;
    tab_rows = rows @ [ total_row ];
  }

let table6 suite = render_tabular (table6_data suite)

(* ----------------------------------------------------------------- *)

let summary suite =
  let b = Buffer.create 512 in
  Buffer.add_string b "LLM4FP reproduction campaign\n";
  Buffer.add_string b
    (Printf.sprintf "budget: %d programs per approach; base seed: %d\n"
       suite.budget suite.seed);
  Buffer.add_string b "compilers: ";
  Array.iter
    (fun p ->
      Buffer.add_string b
        (Printf.sprintf "%s %s%s " (Compiler.Personality.name p)
           (Compiler.Personality.version p)
           (if Compiler.Personality.is_host p then " (host)" else " (device)")))
    Compiler.Personality.all;
  Buffer.add_string b "\n";
  Buffer.add_string b ("math library model: " ^ Mathlib.Libm.profiles_doc ^ "\n");
  List.iter
    (fun (o : Campaign.outcome) ->
      Buffer.add_string b
        (Printf.sprintf
           "%-15s valid programs: %d/%d; feedback set: %d; simulated %s \
            (llm %s); real compute %.1fs\n"
           (Approach.name o.approach)
           (List.length o.programs) o.budget o.successful
           (Util.Sim_clock.hms o.sim_seconds)
           (Util.Sim_clock.hms o.llm_seconds)
           o.real_seconds))
    (outcomes suite);
  Buffer.contents b

let feature_statistics_data suite =
  let mean f programs =
    let total = List.fold_left (fun acc p -> acc + f p) 0 programs in
    float_of_int total /. float_of_int (max 1 (List.length programs))
  in
  let rows =
    outcomes suite
    |> List.map (fun (o : Campaign.outcome) ->
           let programs = o.programs in
           let features = List.map Analysis.Features.of_program programs in
           let meanf f =
             let total = List.fold_left (fun acc x -> acc +. f x) 0.0 features in
             total /. float_of_int (max 1 (List.length features))
           in
           [ Approach.name o.approach;
             Printf.sprintf "%.0f" (mean Lang.Ast.program_size programs);
             Printf.sprintf "%.2f" (mean Lang.Ast.call_count programs);
             Printf.sprintf "%.2f" (mean Lang.Ast.loop_count programs);
             Printf.sprintf "%.2f"
               (meanf (fun (f : Analysis.Features.t) ->
                    float_of_int f.Analysis.Features.split_mul_add_patterns));
             Printf.sprintf "%.2f"
               (meanf (fun (f : Analysis.Features.t) ->
                    float_of_int f.Analysis.Features.mul_add_patterns));
             Printf.sprintf "%.2f"
               (meanf (fun (f : Analysis.Features.t) ->
                    float_of_int f.Analysis.Features.accumulation_loops)) ])
  in
  {
    tab_title =
      "Feature statistics (this reproduction): per-program structural means driving the divergence mechanisms";
    tab_header =
      [ "approach"; "size"; "calls"; "loops"; "split-mul-add"; "mul-add";
        "accum-loops" ];
    tab_align = None;
    tab_rows = rows;
  }

let feature_statistics suite = render_tabular (feature_statistics_data suite)

(* Equal-budget ablation: the bandit ensemble against each fixed arm it
   interleaves. The comparison metric is the bandit's own objective —
   inconsistencies per simulated second — so the table directly answers
   "did adaptive allocation beat the best single generator?". *)
let bandit_ablation_data suite =
  let per_sim (o : Campaign.outcome) =
    if o.Campaign.sim_seconds <= 0.0 then 0.0
    else
      float_of_int (Difftest.Stats.total_inconsistencies o.Campaign.stats)
      /. o.Campaign.sim_seconds
  in
  let bandit_rate = per_sim suite.bandit in
  let row (o : Campaign.outcome) =
    let r = per_sim o in
    [ Approach.name o.Campaign.approach;
      Report.Table.commas (Difftest.Stats.total_inconsistencies o.Campaign.stats);
      Util.Sim_clock.hms o.Campaign.sim_seconds;
      Printf.sprintf "%.4f" r;
      (if o.Campaign.approach = Approach.Bandit then "-"
       else Printf.sprintf "%+.4f" (bandit_rate -. r)) ]
  in
  {
    tab_title =
      "Bandit ablation (this reproduction): ensemble vs each fixed arm at \
       equal budget (incons/sim-s; delta = bandit - arm)";
    tab_header =
      [ "campaign"; "# incons."; "sim time"; "incons/sim-s"; "bandit delta" ];
    tab_align = None;
    tab_rows = List.map row (suite.bandit :: outcomes suite);
  }

let bandit_ablation suite = render_tabular (bandit_ablation_data suite)

let precision_comparison ?(budget = 300) ~seed () =
  let row approach precision label =
    let o = Campaign.run ~budget ~precision ~seed approach in
    [ Printf.sprintf "%s (%s)" (Approach.name o.Campaign.approach) label;
      Report.Table.pct (Difftest.Stats.inconsistency_rate o.Campaign.stats);
      Report.Table.commas (Difftest.Stats.total_inconsistencies o.Campaign.stats);
      string_of_int o.Campaign.successful ]
  in
  Report.Table.render
    ~title:
      (Printf.sprintf
         "Precision extension (this reproduction): FP64 vs FP32 campaigns (budget %d)"
         budget)
    ~header:[ "campaign"; "incons. rate"; "# incons."; "feedback set" ]
    [ row Approach.Varity Lang.Ast.F64 "FP64";
      row Approach.Varity Lang.Ast.F32 "FP32";
      row Approach.Llm4fp Lang.Ast.F64 "FP64";
      row Approach.Llm4fp Lang.Ast.F32 "FP32" ]

let seed_stability ?(budget = 200) ~seeds () =
  let rates approach =
    List.map
      (fun seed ->
        let o = Campaign.run ~budget ~seed approach in
        Difftest.Stats.inconsistency_rate o.Campaign.stats)
      seeds
  in
  let rows =
    Array.to_list Approach.all
    |> List.map (fun approach ->
           let rs = rates approach in
           let mn = List.fold_left Float.min infinity rs in
           let mx = List.fold_left Float.max neg_infinity rs in
           let mean = List.fold_left ( +. ) 0.0 rs /. float_of_int (List.length rs) in
           Approach.name approach
           :: (List.map Report.Table.pct rs
              @ [ Report.Table.pct mn; Report.Table.pct mean; Report.Table.pct mx ]))
  in
  let header =
    "approach"
    :: (List.map (fun s -> Printf.sprintf "seed %d" s) seeds
       @ [ "min"; "mean"; "max" ])
  in
  Report.Table.render
    ~title:
      (Printf.sprintf
         "Seed stability (this reproduction): Table-2 rates across %d independent seeds (budget %d)"
         (List.length seeds) budget)
    ~header rows

type section = { name : string; text : string; csv : string option }

(* Each section's name and its text and CSV, in paper order. table3 is
   the only section that takes [max_pairs] and [jobs]. *)
let section_table =
  let tabular t = (render_tabular t, Some (csv_tabular t)) in
  let tab data _ _ suite = tabular (data suite) in
  [ ("summary", fun _ _ suite -> (summary suite, None));
    ("table1", fun _ _ _ -> tabular (table1_data ()));
    ("table2", tab table2_data);
    ("table3",
     fun max_pairs jobs suite -> tabular (table3_data ?max_pairs ?jobs suite));
    ("figure3", tab figure3_data);
    ("table4", tab table4_data);
    ("table5", tab table5_data);
    ("table6", tab table6_data);
    ("features", tab feature_statistics_data);
    ("bandit", tab bandit_ablation_data) ]

let section_names = List.map fst section_table

let section ?max_pairs ?jobs suite name =
  match List.assoc_opt name section_table with
  | Some compute ->
    let text, csv = compute max_pairs jobs suite in
    { name; text; csv }
  | None -> invalid_arg ("Experiments.section: unknown section " ^ name)

let sections ?max_pairs ?jobs suite =
  List.map (section ?max_pairs ?jobs suite) section_names
