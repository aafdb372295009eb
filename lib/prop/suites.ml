type result = {
  suite : string;
  iterations : int;
  failure : string option;
  replay_seed : int64 option;
}

type suite = {
  name : string;
  doc : string;
  run : ?count:int -> seed:int64 -> unit -> result;
  replay : int64 -> result;
}

let passed r = r.failure = None

let to_result name print = function
  | Engine.Pass n ->
      { suite = name; iterations = n; failure = None; replay_seed = None }
  | Engine.Fail f ->
      {
        suite = name;
        iterations = f.Engine.iteration;
        failure = Some (Engine.pp_failure print f);
        replay_seed = Some f.Engine.case_seed;
      }

let make_suite name doc arb prop =
  {
    name;
    doc;
    run =
      (fun ?count ~seed () ->
        to_result name arb.Engine.print (Engine.run ?count ~seed arb prop));
    replay =
      (fun seed -> to_result name arb.Engine.print (Engine.run_case ~seed arb prop));
  }

(* ------------------------------------------------------------------ *)
(* Shared machinery *)

let strict_rt =
  { Irsim.Interp.libm = Mathlib.Libm.Glibc; ftz = false; nan_cmp_taken = false }

let strict_result p inputs =
  (Irsim.Interp.run strict_rt (Irsim.Lower.program p) inputs).Irsim.Interp.result

let same_bits a b =
  Int64.bits_of_float a = Int64.bits_of_float b
  || (Float.is_nan a && Float.is_nan b)

(* Floats spread over many binades: where EFT identities are exact and
   where rounding differences actually live. *)
let gen_eft_float rng =
  let m = Util.Rng.float_in rng (-1.0) 1.0 in
  let e = Util.Rng.int_in rng (-100) 100 in
  ldexp m e

let eft_pair =
  Engine.make
    ~shrink:(Engine.Shrink.pair Engine.Shrink.float Engine.Shrink.float)
    ~print:(fun (a, b) -> Printf.sprintf "a = %h, b = %h" a b)
    (Engine.Gen.pair gen_eft_float gen_eft_float)

(* ------------------------------------------------------------------ *)
(* Generator invariants *)

let gen_valid =
  make_suite "gen-valid"
    "Varity-generated programs pass the static validator" Arb.program
    Analysis.Validate.is_valid

let gen_inputs_match =
  make_suite "gen-inputs-match"
    "generated input vectors match the program's parameters" Arb.case
    (fun (p, inputs) -> Irsim.Inputs.matches p inputs)

(* ------------------------------------------------------------------ *)
(* Interpreter / pass invariants (strict mode) *)

let interp_total =
  make_suite "interp-total"
    "the interpreter never raises on validated generated programs" Arb.case
    (fun (p, inputs) ->
      ignore (strict_result p inputs);
      true)

let fold_preserves =
  make_suite "fold-preserves"
    "arithmetic constant folding preserves strict-mode bits" Arb.case
    (fun (p, inputs) ->
      let ir = Irsim.Lower.program p in
      let folded =
        Irsim.Fold.run { Irsim.Fold.fold_arith = true; fold_calls = None } ir
      in
      let a = (Irsim.Interp.run strict_rt ir inputs).Irsim.Interp.result in
      let b = (Irsim.Interp.run strict_rt folded inputs).Irsim.Interp.result in
      same_bits a b)

let dce_preserves =
  make_suite "dce-preserves"
    "dead-code elimination preserves strict-mode bits" Arb.case
    (fun (p, inputs) ->
      let ir = Irsim.Lower.program p in
      let swept = Irsim.Dce.run ir in
      let a = (Irsim.Interp.run strict_rt ir inputs).Irsim.Interp.result in
      let b = (Irsim.Interp.run strict_rt swept inputs).Irsim.Interp.result in
      same_bits a b)

let forward_preserves =
  make_suite "forward-preserves"
    "expression forwarding preserves strict-mode bits" Arb.case
    (fun (p, inputs) ->
      let ir = Irsim.Lower.program p in
      let fwd = Irsim.Forward.run ir in
      let a = (Irsim.Interp.run strict_rt ir inputs).Irsim.Interp.result in
      let b = (Irsim.Interp.run strict_rt fwd inputs).Irsim.Interp.result in
      same_bits a b)

let contract_idempotent =
  make_suite "contract-idempotent"
    "FMA contraction applied twice equals applied once" Arb.case
    (fun (p, inputs) ->
      let ir = Irsim.Lower.program p in
      let once = Irsim.Contract.run Irsim.Contract.Syntactic ir in
      let twice = Irsim.Contract.run Irsim.Contract.Syntactic once in
      let a = (Irsim.Interp.run strict_rt once inputs).Irsim.Interp.result in
      let b = (Irsim.Interp.run strict_rt twice inputs).Irsim.Interp.result in
      same_bits a b)

(* ------------------------------------------------------------------ *)
(* Codec fixpoints *)

(* Half the cases print in single precision, where math calls take the
   'f'-suffixed names and the parser infers the precision. *)
let program_either_precision =
  {
    Arb.program with
    Engine.gen =
      (fun rng ->
        let p = Gen.Varity.generate rng in
        if Util.Rng.bool rng then { p with Lang.Ast.precision = Lang.Ast.F32 }
        else p);
  }

let pp_parse_fixpoint =
  make_suite "pp-parse-fixpoint"
    "print -> parse -> print is a fixpoint on the C rendering at either \
     precision, and the CUDA rendering parses to the same program"
    program_either_precision
    (fun p ->
      let printed = Lang.Pp.to_c p in
      match
        (Cparse.Parse.program printed, Cparse.Parse.program (Lang.Pp.to_cuda p))
      with
      | Ok p', Ok device ->
        Lang.Pp.to_c p' = printed && Lang.Ast.equal p' device
      | _ -> false)

let gen_archive_case rng =
  let p, inputs = Gen.Varity.gen_case rng in
  let r = strict_result p inputs in
  (* a second side with deliberately different bits: the codec does not
     care whether the divergence is physical *)
  let r' = if Float.is_nan r then 0.0 else Float.succ r in
  let side config v =
    {
      Difftest.Case.config;
      hex = Fp.Bits.hex_of_double v;
      class_ = Fp.Bits.classify v;
    }
  in
  let level = Util.Rng.choose rng Compiler.Optlevel.all in
  {
    Difftest.Case.kind =
      (if Util.Rng.bool rng then Difftest.Case.Cross else Difftest.Case.Within);
    left = side (Compiler.Config.make Compiler.Personality.Gcc level) r;
    right = side (Compiler.Config.make Compiler.Personality.Clang level) r';
    level;
    digits = Fp.Digits.diff_count r r';
    source = Lang.Pp.to_c p;
    inputs;
    seed = Util.Rng.int_in rng 0 1_000_000;
    slot = Util.Rng.int_in rng 0 10_000;
  }

let case_codec_roundtrip =
  make_suite "case-codec-roundtrip"
    "Case JSON encode/decode is the identity (bit-exact inputs)"
    (Engine.make
       ~print:(fun c -> Obs.Json.to_string (Difftest.Case.to_json c))
       gen_archive_case)
    (fun c ->
      match Difftest.Case.of_json (Difftest.Case.to_json c) with
      | Error _ -> false
      | Ok c' ->
          Difftest.Case.fingerprint c = Difftest.Case.fingerprint c'
          && Obs.Json.to_string (Difftest.Case.to_json c')
             = Obs.Json.to_string (Difftest.Case.to_json c))

(* ------------------------------------------------------------------ *)
(* Digit metric *)

(* Finite floats across the full double range plus the awkward corners
   (zeros, subnormals, extremes), and the occasional non-finite value:
   [decompose_result] must be total on all of them. *)
let gen_digit_float rng =
  match Util.Rng.int_in rng 0 9 with
  | 0 -> 0.0
  | 1 -> -0.0
  | 2 -> Float.min_float /. 4.0 (* subnormal *)
  | 3 -> Float.max_float
  | 4 -> infinity
  | 5 -> nan
  | _ -> ldexp (Util.Rng.float_in rng (-1.0) 1.0) (Util.Rng.int_in rng (-300) 300)

let digit_float =
  Engine.make ~print:(fun x -> Printf.sprintf "%h" x) gen_digit_float

let digits_total =
  make_suite "digits-total"
    "decompose_result is total: 16 digits on finite, typed error otherwise"
    digit_float
    (fun x ->
      match Fp.Digits.decompose_result x with
      | Ok (_, digits, _) ->
          Float.is_finite x
          && String.length digits = 16
          && String.for_all (fun c -> c >= '0' && c <= '9') digits
      | Error (Fp.Digits.Non_finite y) ->
          (not (Float.is_finite x)) && same_bits x y
      | Error (Fp.Digits.Malformed _) -> false)

(* ------------------------------------------------------------------ *)
(* RNG draw discipline *)

(* Probabilities including the boundaries and out-of-range values: the
   schedule endpoints are exactly where a shortcut would skip the draw
   and desync every replayed stream behind it. *)
let chance_case =
  Engine.make
    ~print:(fun (seed, p) -> Printf.sprintf "seed = %d, p = %.6f" seed p)
    (fun rng ->
      let seed = Util.Rng.int_in rng 0 1_000_000 in
      let p =
        match Util.Rng.int_in rng 0 5 with
        | 0 -> 0.0
        | 1 -> 1.0
        | 2 -> -0.25
        | 3 -> 1.25
        | _ -> Util.Rng.float rng 1.0
      in
      (seed, p))

let chance_one_draw =
  make_suite "chance-one-draw"
    "Rng.chance burns exactly one uniform draw at every p, boundaries \
     included, and decides by comparing that draw"
    chance_case
    (fun (seed, p) ->
      let a = Util.Rng.of_int seed in
      let b = Util.Rng.of_int seed in
      let c = Util.Rng.chance a p in
      let u = Util.Rng.float b 1.0 in
      c = (u < p) && Util.Rng.state a = Util.Rng.state b)

(* ------------------------------------------------------------------ *)
(* Error-free transformations *)

let eft_two_sum =
  make_suite "eft-two-sum"
    "two_sum matches magnitude-ordered fast_two_sum exactly" eft_pair
    (fun (a, b) ->
      let s, e = Fp.Eft.two_sum a b in
      let s2, e2 =
        if Float.abs a >= Float.abs b then Fp.Eft.fast_two_sum a b
        else Fp.Eft.fast_two_sum b a
      in
      s = a +. b && same_bits s s2 && same_bits e e2)

let eft_two_prod =
  make_suite "eft-two-prod"
    "two_prod error equals fma(a, b, -p) exactly" eft_pair
    (fun (a, b) ->
      let p, e = Fp.Eft.two_prod a b in
      p = a *. b && same_bits e (Float.fma a b (-.p)))

(* ------------------------------------------------------------------ *)
(* Diversity metrics *)

(* The ids of a program's tokens in the vocabulary [v]. *)
let tokens v p =
  Array.map
    (fun tok -> Diversity.Vocab.string v (Cparse.Lex.to_string tok))
    (Cparse.Lex.tokens (Lang.Pp.compute_to_string p))

let program_pair =
  Engine.make
    ~print:(fun (a, b) ->
      Printf.sprintf "%s\n--- vs ---\n%s" (Lang.Pp.to_c a) (Lang.Pp.to_c b))
    (fun rng ->
      let a = Gen.Varity.generate rng in
      let b = Gen.Varity.generate rng in
      (a, b))

(* Every case builds its own vocabulary, so a long run does not grow a
   shared one. *)
let bleu_range =
  make_suite "bleu-range" "BLEU score of any program pair lies in [0, 1]"
    program_pair
    (fun (a, b) ->
      let v = Diversity.Vocab.create () in
      let s =
        Diversity.Bleu.score
          ~candidate:(Diversity.Bleu.table v (tokens v a))
          ~reference:(Diversity.Bleu.table v (tokens v b))
      in
      s >= 0.0 && s <= 1.0)

let bleu_self =
  make_suite "bleu-self" "BLEU self-score of any program is 1" Arb.program
    (fun p ->
      let v = Diversity.Vocab.create () in
      let t = Diversity.Bleu.table v (tokens v p) in
      Float.abs (Diversity.Bleu.score ~candidate:t ~reference:t -. 1.0) < 1e-9)

let codebleu_symmetric =
  make_suite "codebleu-symmetric"
    "CodeBLEU's symmetric score is bit-identical in both argument orders \
     and to the mean of the two directed scores"
    program_pair
    (fun (a, b) ->
      let v = Diversity.Vocab.create () in
      let sa = Diversity.Codebleu.summarize_in v a
      and sb = Diversity.Codebleu.summarize_in v b in
      let ab = Diversity.Codebleu.symmetric sa sb in
      same_bits ab (Diversity.Codebleu.symmetric sb sa)
      && same_bits ab
           (0.5
           *. (Diversity.Codebleu.pair_score ~candidate:sa ~reference:sb
              +. Diversity.Codebleu.pair_score ~candidate:sb ~reference:sa)))

(* The windows of [n] tokens of [toks] counted the naive way: an
   association list from token list to count. *)
let naive_windows n toks =
  let rec add key = function
    | [] -> [ (key, 1) ]
    | (k, c) :: rest when k = key -> (k, c + 1) :: rest
    | kc :: rest -> kc :: add key rest
  in
  let counts = ref [] in
  for i = 0 to Array.length toks - n do
    counts := add (Array.to_list (Array.sub toks i n)) !counts
  done;
  !counts

(* Distinct weights for the two colliding tokens, and a zero weight that
   a window must lift to 1. *)
let window_token_weight tok =
  if tok = fst (Lazy.force Arb.colliding_tokens) then 3
  else if tok = "double" then 4
  else if tok = "x" then 0
  else 1

let key_weight key =
  List.fold_left (fun w tok -> Int.max w (window_token_weight tok)) 1 key

let multiset_equiv =
  make_suite "multiset-equiv"
    "The n-gram multisets of token ids give the naive counts of the token \
     strings' windows: plain and weighted cardinals, and the clipped sums \
     Σ min and Σ weight × min, at every order up to a bound of 1 to 16"
    Arb.token_windows
    (fun (max_n, a, b) ->
      let module M = Diversity.Multiset in
      let v = Diversity.Vocab.create () in
      let windows toks =
        M.windows v max_n
          ~weights:(Array.map window_token_weight toks)
          (Array.map (Diversity.Vocab.string v) toks)
      in
      let wa = windows a and wb = windows b in
      List.for_all
        (fun n ->
          let ca = naive_windows n a and cb = naive_windows n b in
          let cardinal c = List.fold_left (fun s (_, k) -> s + k) 0 c in
          let weighted c =
            List.fold_left (fun s (key, k) -> s + (key_weight key * k)) 0 c
          in
          let clipped =
            List.fold_left
              (fun (p, w) (key, k) ->
                match List.assoc_opt key cb with
                | Some r ->
                  let m = Int.min k r in
                  (p + m, w + (key_weight key * m))
                | None -> (p, w))
              (0, 0) ca
          in
          let ma = wa.(n - 1) and mb = wb.(n - 1) in
          M.cardinal ma = cardinal ca
          && M.cardinal mb = cardinal cb
          && M.weighted_cardinal ma = weighted ca
          && M.weighted_cardinal mb = weighted cb
          && M.inter ma mb = clipped
          && M.inter mb ma = clipped)
        (List.init max_n (fun k -> k + 1)))

let subtree_ids =
  make_suite "subtree-ids"
    "Two subtrees of a program pair get equal ids exactly when their \
     canonical renderings are equal"
    program_pair
    (fun (a, b) ->
      let v = Diversity.Vocab.create () in
      let ids p = Diversity.Ast_match.subtrees v p in
      Oracle.same_partition
        (Array.append (ids a) (ids b))
        (Array.append (Oracle.subtree_renderings a) (Oracle.subtree_renderings b)))

(* ------------------------------------------------------------------ *)
(* Execution-engine equivalence *)

(* A generated case plus a uniformly drawn configuration index: the VM
   must agree with the tree interpreter under every runtime the matrix
   can produce (libm flavor, FTZ, NaN-branch polarity), not just strict
   mode. Half the programs are single precision, so the VM's own F32
   rounding and the F32 libm kernels are checked too. Shrinking
   minimizes the program/inputs and keeps the configuration and the
   precision fixed. *)
let vm_configs = Compiler.Config.all ()

let vm_case =
  {
    Engine.gen =
      (fun rng ->
        let p, inputs = Arb.case.Engine.gen rng in
        let k = Util.Rng.int_in rng 0 (List.length vm_configs - 1) in
        let precision = if Util.Rng.bool rng then Lang.Ast.F32 else Lang.Ast.F64 in
        (({ p with Lang.Ast.precision }, inputs), k));
    shrink =
      (fun (case, k) ->
        Seq.map (fun c -> (c, k)) (Arb.case.Engine.shrink case));
    print =
      (fun (case, k) ->
        Printf.sprintf "config = %s\n%s"
          (Compiler.Config.name (List.nth vm_configs k))
          (Arb.case.Engine.print case));
  }

let vm_equiv =
  make_suite "vm-equiv"
    "the flattened VM is bit-identical to the tree interpreter under \
     every configuration"
    vm_case
    (fun ((p, inputs), k) ->
      let config = List.nth vm_configs k in
      match Compiler.Driver.compile config p with
      | Error _ -> true (* nothing to execute *)
      | Ok binary ->
        let rt = Compiler.Config.runtime binary.Compiler.Driver.config in
        let tree = Irsim.Interp.run rt binary.Compiler.Driver.ir inputs in
        let vm = Irsim.Vm.run binary.Compiler.Driver.vm inputs in
        same_bits tree.Irsim.Interp.result vm.Irsim.Interp.result
        && tree.Irsim.Interp.fp_ops = vm.Irsim.Interp.fp_ops)

(* ------------------------------------------------------------------ *)
(* Binary sharing *)

(* A generated case at either precision. Differential testing shares one
   flattened program and one execution among the configurations of a
   program whose back ends agree; each configuration's output must still
   be what its own binary prints when compiled and run alone. *)
let precision_case =
  {
    Engine.gen =
      (fun rng ->
        let p, inputs = Arb.case.Engine.gen rng in
        let precision = if Util.Rng.bool rng then Lang.Ast.F32 else Lang.Ast.F64 in
        ({ p with Lang.Ast.precision }, inputs));
    shrink = Arb.case.Engine.shrink;
    print = Arb.case.Engine.print;
  }

let shared_binary_equiv =
  make_suite "shared-binary-equiv"
    "every configuration's differential-testing output equals a fresh, \
     unshared compile and run of that configuration"
    precision_case
    (fun (p, inputs) ->
      let result = Difftest.Run.test ~configs:vm_configs p inputs in
      List.for_all
        (fun (config : Compiler.Config.t) ->
          let shared =
            List.find_opt
              (fun (o : Difftest.Run.output) ->
                o.config.personality = config.personality
                && o.config.level = config.level)
              result.Difftest.Run.outputs
          in
          let fresh =
            match Compiler.Driver.compile config p with
            | Error _ -> None
            | Ok binary -> (
              match Compiler.Driver.run binary inputs with
              | out -> Some (out, binary.Compiler.Driver.work)
              | exception Irsim.Interp.Trap _ -> None)
          in
          match (shared, fresh) with
          | None, None -> true
          | Some o, Some ((out : Irsim.Interp.outcome), work) ->
            o.hex = Fp.Bits.hex_of_double out.result
            && o.ops = out.fp_ops && o.work = work
          | _ -> false)
        vm_configs)

(* ------------------------------------------------------------------ *)
(* Fleet merge laws *)

(* A fixed pool of completed chunk outcomes, built once per process:
   real mini-campaigns supply stats and coverage ledgers with populated
   cross/within matrices, and per-chunk archive cases come from the
   same generator the codec suite uses. Random subsets of one pool can
   never conflict (equal chunk ids carry equal bytes), which is exactly
   the regime Harness.Fleet.merge_outcomes promises its laws under. *)
let fleet_pool =
  lazy
    (List.init 6 (fun k ->
         let approach = Harness.Approach.all.(k mod Array.length Harness.Approach.all) in
         let seed = Harness.Shard.chunk_seed ~seed:20250704 k in
         let o = Harness.Campaign.run ~budget:4 ~seed approach in
         let rng = Util.Rng.of_int (1000 + k) in
         let cases = List.init ((k mod 3) + 1) (fun _ -> gen_archive_case rng) in
         let cases =
           (* fingerprint-keyed first-wins, sorted: the invariant chunk
              archives hold on disk *)
           List.sort_uniq
             (fun a b ->
               compare (Difftest.Case.fingerprint a) (Difftest.Case.fingerprint b))
             cases
         in
         let outcome =
           {
             Harness.Fleet.chunk = k;
             seed;
             first_slot = (k * 4) + 1;
             budget = 4;
             approach = Harness.Approach.name approach;
             precision = "fp64";
             successful = o.Harness.Campaign.successful;
             generation_failures = o.Harness.Campaign.generation_failures;
             sim_seconds = o.Harness.Campaign.sim_seconds;
             llm_seconds = o.Harness.Campaign.llm_seconds;
             stats = o.Harness.Campaign.stats;
             coverage = o.Harness.Campaign.coverage;
             fingerprints = List.map Difftest.Case.fingerprint cases;
           }
         in
         (outcome, cases)))

(* Three independent subsets of the pool, as sorted index lists. *)
let gen_fleet_subsets rng =
  let subset () =
    List.filter (fun _ -> Util.Rng.bool rng) [ 0; 1; 2; 3; 4; 5 ]
  in
  (subset (), subset (), subset ())

let fleet_subsets =
  Engine.make
    ~print:(fun (a, b, c) ->
      let show ids = "{" ^ String.concat "," (List.map string_of_int ids) ^ "}" in
      Printf.sprintf "a=%s b=%s c=%s" (show a) (show b) (show c))
    gen_fleet_subsets

let fleet_merge =
  make_suite "fleet-merge"
    "fleet archive/stats/coverage merge is commutative, associative, idempotent"
    fleet_subsets
    (fun (ia, ib, ic) ->
      let pool = Lazy.force fleet_pool in
      let outcomes ids = List.map (fun i -> fst (List.nth pool i)) ids in
      let cases ids = List.concat_map (fun i -> snd (List.nth pool i)) ids in
      let oa, ob, oc = (outcomes ia, outcomes ib, outcomes ic) in
      let outcome_bytes os =
        String.concat ";"
          (List.map
             (fun o -> Obs.Json.to_string (Harness.Fleet.outcome_to_json o))
             os)
      in
      let merge2 x y =
        match Harness.Fleet.merge_outcomes x y with
        | Ok m -> m
        | Error msg -> failwith msg
      in
      let case_bytes cs =
        String.concat ";"
          (List.map (fun c -> Obs.Json.to_string (Difftest.Case.to_json c)) cs)
      in
      let mc = Harness.Fleet.merge_cases in
      let ca, cb, cc = (cases ia, cases ib, cases ic) in
      let stats_of os =
        List.fold_left
          (fun acc o -> Difftest.Stats.merge acc o.Harness.Fleet.stats)
          (Difftest.Stats.create ()) os
      in
      let stats_bytes s = Obs.Json.to_string (Difftest.Stats.to_json s) in
      let sa, sb, sc = (stats_of oa, stats_of ob, stats_of oc) in
      let cov_of os =
        List.fold_left
          (fun acc o -> Obs.Coverage.merge acc o.Harness.Fleet.coverage)
          (Obs.Coverage.create ()) os
      in
      let cov_bytes v = Obs.Json.to_string (Obs.Coverage.to_json v) in
      let va, vb, vc = (cov_of oa, cov_of ob, cov_of oc) in
      (* chunk-keyed outcome union: commutative, associative AND
         idempotent (the keyed-union layer supplies idempotence the raw
         ledger sums cannot) *)
      outcome_bytes (merge2 oa ob) = outcome_bytes (merge2 ob oa)
      && outcome_bytes (merge2 (merge2 oa ob) oc)
         = outcome_bytes (merge2 oa (merge2 ob oc))
      && outcome_bytes (merge2 oa oa) = outcome_bytes oa
      (* fingerprint-keyed archive union: same three laws *)
      && case_bytes (mc [ ca; cb ]) = case_bytes (mc [ cb; ca ])
      && case_bytes (mc [ mc [ ca; cb ]; cc ]) = case_bytes (mc [ ca; mc [ cb; cc ] ])
      && case_bytes (mc [ ca; ca ]) = case_bytes (mc [ ca ])
      (* raw ledger folds: commutative and associative sums (dedup is
         the keyed layer's job, so no idempotence here) *)
      && stats_bytes (Difftest.Stats.merge sa sb)
         = stats_bytes (Difftest.Stats.merge sb sa)
      && stats_bytes (Difftest.Stats.merge (Difftest.Stats.merge sa sb) sc)
         = stats_bytes (Difftest.Stats.merge sa (Difftest.Stats.merge sb sc))
      && cov_bytes (Obs.Coverage.merge va vb) = cov_bytes (Obs.Coverage.merge vb va)
      && cov_bytes (Obs.Coverage.merge (Obs.Coverage.merge va vb) vc)
         = cov_bytes (Obs.Coverage.merge va (Obs.Coverage.merge vb vc)))

let all =
  [
    gen_valid;
    gen_inputs_match;
    interp_total;
    fold_preserves;
    dce_preserves;
    forward_preserves;
    contract_idempotent;
    pp_parse_fixpoint;
    case_codec_roundtrip;
    digits_total;
    chance_one_draw;
    eft_two_sum;
    eft_two_prod;
    bleu_range;
    bleu_self;
    codebleu_symmetric;
    multiset_equiv;
    subtree_ids;
    vm_equiv;
    shared_binary_equiv;
    fleet_merge;
  ]

let find name = List.find_opt (fun s -> s.name = name) all
