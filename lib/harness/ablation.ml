type variant = {
  name : string;
  description : string;
  configs : Compiler.Config.t list;
}

let base () = Compiler.Config.all ()

let no_cuda_libm () =
  List.map
    (fun (c : Compiler.Config.t) ->
      match c.libm with
      | Mathlib.Libm.Cuda -> { c with Compiler.Config.libm = Mathlib.Libm.Glibc }
      | Mathlib.Libm.Cuda_fast ->
        { c with Compiler.Config.libm = Mathlib.Libm.Gcc_fast }
      | _ -> c)
    (base ())

let no_fma_gap () =
  List.map
    (fun (c : Compiler.Config.t) ->
      let contract =
        match c.Compiler.Config.level with
        | Compiler.Optlevel.O0_nofma | Compiler.Optlevel.O0 ->
          Irsim.Contract.No_contract
        | _ -> Irsim.Contract.Syntactic
      in
      { c with Compiler.Config.contract })
    (base ())

let no_fold_divergence () =
  List.map
    (fun (c : Compiler.Config.t) ->
      { c with
        Compiler.Config.fold =
          { c.Compiler.Config.fold with Irsim.Fold.fold_calls = None } })
    (base ())

let no_fastmath () =
  List.map
    (fun (c : Compiler.Config.t) ->
      if c.Compiler.Config.level <> Compiler.Optlevel.O3_fastmath then c
      else
        let plain =
          Compiler.Config.make c.Compiler.Config.personality Compiler.Optlevel.O3
        in
        { plain with Compiler.Config.level = Compiler.Optlevel.O3_fastmath })
    (base ())

let variants () =
  [
    { name = "full"; description = "unmodified compiler model"; configs = base () };
    { name = "no-cuda-libm";
      description = "device links the host math library";
      configs = no_cuda_libm () };
    { name = "no-fma-gap";
      description = "uniform syntactic contraction at O1+ for everyone";
      configs = no_fma_gap () };
    { name = "no-fold-divergence";
      description = "no divergent compile-time folding of math calls";
      configs = no_fold_divergence () };
    { name = "no-fastmath";
      description = "03_fastmath behaves exactly like 03";
      configs = no_fastmath () };
  ]

let replay variant cases =
  let stats = Difftest.Stats.create () in
  List.iter
    (fun (program, inputs) ->
      Difftest.Stats.add stats
        (Difftest.Run.test ~configs:variant.configs program inputs))
    cases;
  stats

let table ?(budget = 300) ~seed () =
  let outcome = Campaign.run ~budget ~seed Approach.Llm4fp in
  let cases = outcome.Campaign.cases in
  let full_rate = ref 0.0 in
  let rows =
    List.map
      (fun variant ->
        let stats = replay variant cases in
        let rate = Difftest.Stats.inconsistency_rate stats in
        if variant.name = "full" then full_rate := rate;
        let delta =
          if variant.name = "full" then "-"
          else Printf.sprintf "%+.2f pts" (100.0 *. (rate -. !full_rate))
        in
        [ variant.name;
          Report.Table.pct rate;
          Report.Table.commas (Difftest.Stats.total_inconsistencies stats);
          delta;
          variant.description ])
      (variants ())
  in
  Report.Table.render
    ~title:
      (Printf.sprintf
         "Ablation (this reproduction): LLM4FP corpus of %d programs \
          replayed under modified compiler models"
         budget)
    ~header:[ "variant"; "rate"; "# incons."; "delta"; "mechanism removed" ]
    ~align:
      [ Report.Table.Left; Report.Table.Right; Report.Table.Right;
        Report.Table.Right; Report.Table.Left ]
    rows
