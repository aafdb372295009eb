(* Tests for lib/diversity: BLEU, AST match, CodeBLEU, clone detection. *)

open Helpers

let p1 = parse {|
void compute(double x, double* a) {
  double comp = 0.0;
  for (int i = 0; i < 8; ++i) {
    comp += a[i] * x;
  }
}
|}

(* p1 with consistently renamed identifiers *)
let p1_renamed = Lang.Ast.rename (fun n -> n ^ "_r") p1

(* p1 with one literal changed *)
let p1_lit = parse {|
void compute(double x, double* a) {
  double comp = 0.0;
  for (int i = 0; i < 8; ++i) {
    comp += a[i] * x;
  }
  comp *= 2.0;
}
|}

let p2 = parse {|
void compute(double u, double v) {
  double comp = 0.0;
  comp = sin(u) / (1.0 + cos(v));
}
|}

let arbitrary_program =
  QCheck.make
    ~print:(fun p -> Lang.Pp.to_c p)
    (QCheck.Gen.map
       (fun seed -> Gen.Varity.generate (Util.Rng.of_int seed))
       QCheck.Gen.int)

(* ------------------------------------------------------------------ *)
(* Bleu *)

let tokens p =
  Array.map Cparse.Lex.to_string
    (Cparse.Lex.tokens (Lang.Pp.compute_to_string p))

(* The BLEU table of a token sequence in the vocabulary [v]. *)
let table v toks = Diversity.Bleu.table v (Array.map (Diversity.Vocab.string v) toks)

let test_bleu_identical () =
  let t = table (Diversity.Vocab.create ()) (tokens p1) in
  check_float ~eps:1e-9 "self = 1" 1.0 (Diversity.Bleu.score ~candidate:t ~reference:t)

let test_bleu_disjoint_low () =
  let v = Diversity.Vocab.create () in
  let a = table v [| "a"; "b"; "c"; "d"; "e"; "f" |] in
  let b = table v [| "u"; "v"; "w"; "x"; "y"; "z" |] in
  check_bool "near zero" true (Diversity.Bleu.score ~candidate:a ~reference:b < 0.01)

let test_bleu_brevity_penalty () =
  (* a perfectly matching prefix still scores below 1 when the candidate
     is shorter than the reference *)
  let v = Diversity.Vocab.create () in
  let reference = table v [| "a"; "b"; "c"; "d"; "e"; "f" |] in
  let prefix = table v [| "a"; "b"; "c" |] in
  let s = Diversity.Bleu.score ~candidate:prefix ~reference in
  check_bool "penalized" true (s < 0.5);
  check_bool "not zero" true (s > 0.0)

let test_bleu_weighted_keywords () =
  (* matching a keyword counts more under the weighted table *)
  let w = Diversity.Codebleu.keyword_weight in
  check_int "keyword weight" 4 (w "double");
  check_int "plain weight" 1 (w "alpha")

let qcheck_bleu_bounds =
  QCheck.Test.make ~name:"BLEU score in [0,1]" ~count:100
    QCheck.(pair arbitrary_program arbitrary_program)
    (fun (a, b) ->
      let v = Diversity.Vocab.create () in
      let ta = table v (tokens a) in
      let tb = table v (tokens b) in
      let s = Diversity.Bleu.score ~candidate:ta ~reference:tb in
      s >= 0.0 && s <= 1.0)

(* ------------------------------------------------------------------ *)
(* Ast_match *)

let test_ast_match_self () =
  let s = Diversity.Ast_match.summarize (Diversity.Vocab.create ()) p1 in
  check_float ~eps:1e-9 "self" 1.0 (Diversity.Ast_match.score ~candidate:s ~reference:s)

let test_ast_match_rename_invariant () =
  let v = Diversity.Vocab.create () in
  let a = Diversity.Ast_match.summarize v p1 in
  let b = Diversity.Ast_match.summarize v p1_renamed in
  check_float ~eps:1e-9 "renaming invisible" 1.0 (Diversity.Ast_match.score ~candidate:a ~reference:b)

let test_ast_match_different_structures () =
  let v = Diversity.Vocab.create () in
  let a = Diversity.Ast_match.summarize v p1 in
  let b = Diversity.Ast_match.summarize v p2 in
  check_bool "below 0.5" true (Diversity.Ast_match.score ~candidate:a ~reference:b < 0.5)

(* ------------------------------------------------------------------ *)
(* Codebleu *)

let test_codebleu_self () =
  let s = Diversity.Codebleu.summarize p1 in
  check_float ~eps:1e-9 "self = 1" 1.0 (Diversity.Codebleu.pair_score ~candidate:s ~reference:s)

let test_codebleu_rename_high () =
  let a = Diversity.Codebleu.summarize p1 in
  let b = Diversity.Codebleu.summarize p1_renamed in
  (* token BLEU drops, but AST and dataflow components stay at 1 *)
  let s = Diversity.Codebleu.symmetric a b in
  check_bool "well above half" true (s > 0.5);
  check_bool "below identity" true (s < 1.0)

let test_codebleu_unrelated_low () =
  let a = Diversity.Codebleu.summarize p1 in
  let b = Diversity.Codebleu.summarize p2 in
  check_bool "low" true (Diversity.Codebleu.symmetric a b < 0.45)

let test_codebleu_symmetric () =
  let a = Diversity.Codebleu.summarize p1 in
  let b = Diversity.Codebleu.summarize p1_lit in
  check_float ~eps:1e-9 "mean of directions"
    (0.5 *. (Diversity.Codebleu.pair_score ~candidate:a ~reference:b
            +. Diversity.Codebleu.pair_score ~candidate:b ~reference:a))
    (Diversity.Codebleu.symmetric a b)

let test_corpus_mean_small () =
  let mean = Diversity.Codebleu.corpus_mean ~seed:1 [ p1; p1_renamed; p2 ] in
  check_bool "bounded" true (mean > 0.0 && mean < 1.0)

let test_corpus_mean_sampled_deterministic () =
  let programs =
    List.init 40 (fun i -> Gen.Varity.generate (Util.Rng.of_int i))
  in
  let a = Diversity.Codebleu.corpus_mean ~max_pairs:100 ~seed:7 programs in
  let b = Diversity.Codebleu.corpus_mean ~max_pairs:100 ~seed:7 programs in
  check_float ~eps:1e-9 "same sample same mean" a b

(* Table 3's scores, pinned at %.17g: the four approaches' corpora from
   fixed-seed 20-slot campaigns, every pair scored (exact path) and 60
   sampled pairs (sampled path, below every corpus's pair count). *)
let golden_corpus_means =
  [ ("VARITY", ("0.26665525802344009", "0.25328565173228029"));
    ("DIRECT-PROMPT", ("0.29152628943689407", "0.29848864268618241"));
    ("GRAMMAR-GUIDED", ("0.36134620609710422", "0.35930922380143365"));
    ("LLM4FP", ("0.38128735027280802", "0.3793742967956083")) ]

let test_corpus_mean_golden () =
  Array.iter
    (fun approach ->
      let name = Harness.Approach.name approach in
      let programs =
        (Harness.Campaign.run ~budget:20 ~seed:2025 approach).Harness.Campaign.programs
      in
      let n = List.length programs in
      check_bool (name ^ ": 60 pairs sample") true (n * (n - 1) / 2 > 60);
      let exact, sampled = List.assoc name golden_corpus_means in
      let mean ?max_pairs () =
        Printf.sprintf "%.17g"
          (Diversity.Codebleu.corpus_mean ?max_pairs ~seed:11 programs)
      in
      check_string (name ^ ": exact") exact (mean ());
      check_string (name ^ ": sampled") sampled (mean ~max_pairs:60 ()))
    Harness.Approach.all

let test_corpus_mean_rejects_max_pairs () =
  List.iter
    (fun max_pairs ->
      match Diversity.Codebleu.corpus_mean ~max_pairs ~seed:1 [ p1; p2 ] with
      | _ -> Alcotest.failf "max_pairs %d accepted" max_pairs
      | exception Invalid_argument _ -> ())
    [ 0; -5 ]

(* Two distinct tokens with equal [Hashtbl.hash]: the string table must
   still give them distinct ids. *)
let test_hash_collision () =
  let a, b = Lazy.force Prop.Arb.colliding_tokens in
  check_bool "distinct tokens" true (a <> b);
  check_int "equal hashes" (Hashtbl.hash a) (Hashtbl.hash b);
  let score c r =
    let v = Diversity.Vocab.create () in
    Diversity.Bleu.score ~candidate:(table v (Array.of_list c))
      ~reference:(table v (Array.of_list r))
  in
  (* BLEU from the unigram and bigram precisions of a two-token
     candidate; orders 3 and 4 have no n-grams and count as 1 *)
  let bleu unigram bigram = exp ((log unigram +. log bigram) /. 4.0) in
  check_float "a matches itself" 1.0 (score [ a ] [ a ]);
  check_float "a does not match b" (bleu 1e-9 1.0) (score [ a ] [ b ]);
  check_float "b does not match a" (bleu 1e-9 1.0) (score [ b ] [ a ]);
  check_float "both unigrams found, the bigram not" (bleu 1.0 1e-9)
    (score [ a; b ] [ b; a ]);
  check_float "one of two a's clipped, b unmatched" (bleu 0.5 1e-9)
    (score [ a; a ] [ a; b ])

(* A summary pairs only within its vocabulary, and the vocabulary does
   not change a score: the shared one of [summarize] and a fresh one give
   the same bits. *)
let test_vocabularies () =
  let v = Diversity.Vocab.create () and w = Diversity.Vocab.create () in
  let a = Diversity.Codebleu.summarize_in v p1
  and b = Diversity.Codebleu.summarize_in v p2 in
  let b' = Diversity.Codebleu.summarize_in w p2 in
  let rejects name f =
    match f () with
    | _ -> Alcotest.failf "%s accepted summaries of two vocabularies" name
    | exception Invalid_argument _ -> ()
  in
  rejects "symmetric" (fun () -> Diversity.Codebleu.symmetric a b');
  rejects "pair_score" (fun () ->
      Diversity.Codebleu.pair_score ~candidate:b' ~reference:a);
  rejects "symmetric, shared and own" (fun () ->
      Diversity.Codebleu.symmetric (Diversity.Codebleu.summarize p1) b);
  let bits x = Int64.bits_of_float x in
  Alcotest.(check int64) "shared and own vocabulary"
    (bits (Diversity.Codebleu.symmetric a b))
    (bits
       (Diversity.Codebleu.symmetric (Diversity.Codebleu.summarize p1)
          (Diversity.Codebleu.summarize p2)))

(* The exactness of the AST component: over every subtree of the
   programs of 25-slot campaigns of each approach, equal ids are equal
   renderings. *)
let test_subtree_ids () =
  Array.iter
    (fun approach ->
      let programs =
        (Harness.Campaign.run ~budget:25 ~seed:31 approach).Harness.Campaign.programs
      in
      let v = Diversity.Vocab.create () in
      let ids = List.map (Diversity.Ast_match.subtrees v) programs
      and renderings = List.map Prop.Oracle.subtree_renderings programs in
      check_bool "subtrees" true (List.exists (fun a -> Array.length a > 0) ids);
      check_bool (Harness.Approach.name approach) true
        (Prop.Oracle.same_partition (Array.concat ids) (Array.concat renderings)))
    (Array.append Harness.Approach.all [| Harness.Approach.Bandit |])

(* A vocabulary past 2^16 ids, grown from the smallest table: ids take
   three radix passes, and the counts still match a naive count. *)
let test_large_vocabulary () =
  let v = Diversity.Vocab.create ~size:1 () in
  let rng = Util.Rng.of_int 5 in
  let toks () =
    Array.init 3_000 (fun _ ->
        Diversity.Vocab.string v (string_of_int (Util.Rng.int rng 400)))
  in
  let a = toks () and b = toks () in
  let grams t = Diversity.Multiset.windows v 4 ~weights:(Array.make 3_000 1) t in
  let ga = grams a and gb = grams b in
  (* more grams, to push the ids past 2^16 *)
  for _ = 1 to 20 do ignore (grams (toks ())) done;
  check_bool "ids past 2^16" true (Diversity.Vocab.string v "new" >= 1 lsl 16);
  let late = grams a in
  let naive n =
    let count t =
      let h = Hashtbl.create 64 in
      for i = 0 to Array.length t - n do
        let key = Array.sub t i n in
        Hashtbl.replace h key (1 + Option.value ~default:0 (Hashtbl.find_opt h key))
      done;
      h
    in
    let ca = count a and cb = count b in
    Hashtbl.fold
      (fun key c m ->
        match Hashtbl.find_opt cb key with Some r -> m + Int.min c r | None -> m)
      ca 0
  in
  for k = 0 to 3 do
    let expected = naive (k + 1) in
    check_int "clipped count" expected (fst (Diversity.Multiset.inter ga.(k) gb.(k)));
    check_int "built again" expected (fst (Diversity.Multiset.inter late.(k) gb.(k)))
  done

let qcheck_codebleu_bounds =
  QCheck.Test.make ~name:"CodeBLEU in [0,1]" ~count:60
    QCheck.(pair arbitrary_program arbitrary_program)
    (fun (a, b) ->
      let v = Diversity.Vocab.create () in
      let s =
        Diversity.Codebleu.symmetric
          (Diversity.Codebleu.summarize_in v a)
          (Diversity.Codebleu.summarize_in v b)
      in
      s >= 0.0 && s <= 1.0)

(* ------------------------------------------------------------------ *)
(* Clones *)

let test_clone_keys () =
  check_bool "type1: identical" true
    (Diversity.Clones.type1_key p1 = Diversity.Clones.type1_key p1);
  check_bool "type1: rename breaks" false
    (Diversity.Clones.type1_key p1 = Diversity.Clones.type1_key p1_renamed);
  check_bool "type2c: consistent rename matches" true
    (Diversity.Clones.type2c_key p1 = Diversity.Clones.type2c_key p1_renamed);
  check_bool "type2: literal change invisible" true
    (Diversity.Clones.type2_key p1
    = Diversity.Clones.type2_key
        (Lang.Ast.map_exprs
           (fun e -> match e with Lang.Ast.Lit _ -> Lang.Ast.Lit 9.75 | e -> e)
           p1.Lang.Ast.body
         |> fun body -> { p1 with Lang.Ast.body }))

let test_clone_hierarchy () =
  (* Type-1 implies Type-2c implies Type-2 *)
  check_bool "t2c for renamed" true
    (Diversity.Clones.type2_key p1 = Diversity.Clones.type2_key p1_renamed)

let test_analyze_buckets () =
  let r = Diversity.Clones.analyze [ p1; p1; p1_renamed; p2 ] in
  check_int "one type1 (second copy)" 1 r.Diversity.Clones.type1;
  check_int "one type2c (renamed)" 1 r.Diversity.Clones.type2c;
  check_int "no bare type2" 0 r.Diversity.Clones.type2;
  check_int "total" 4 r.Diversity.Clones.total_programs;
  Alcotest.(check (float 0.01)) "percentage" 50.0 (Diversity.Clones.percentage r)

(* The key from a program's host unit, which the client and [analyze]
   already hold, is the key of the program: every program of 25-slot
   campaigns of each approach, at both precisions. *)
let test_type2_key_of_unit () =
  List.iter
    (fun precision ->
      Array.iter
        (fun approach ->
          let o = Harness.Campaign.run ~budget:25 ~precision ~seed:31 approach in
          check_bool "campaign kept programs" true (o.Harness.Campaign.programs <> []);
          List.iter
            (fun p ->
              check_string (Harness.Approach.name approach)
                (Diversity.Clones.type2_key p)
                (Diversity.Clones.type2_key_of_unit (Lang.Pp.to_c p)))
            o.Harness.Campaign.programs)
        (Array.append Harness.Approach.all [| Harness.Approach.Bandit |]))
    [ Lang.Ast.F64; Lang.Ast.F32 ]

let test_analyze_distinct () =
  let programs = List.init 20 (fun i -> Gen.Varity.generate (Util.Rng.of_int i)) in
  let r = Diversity.Clones.analyze programs in
  check_int "random programs are not clones" 0
    (r.Diversity.Clones.type1 + r.Diversity.Clones.type2 + r.Diversity.Clones.type2c)

let () =
  Alcotest.run "diversity"
    [
      ( "bleu",
        [
          Alcotest.test_case "identical" `Quick test_bleu_identical;
          Alcotest.test_case "disjoint" `Quick test_bleu_disjoint_low;
          Alcotest.test_case "brevity penalty" `Quick test_bleu_brevity_penalty;
          Alcotest.test_case "keyword weights" `Quick test_bleu_weighted_keywords;
          QCheck_alcotest.to_alcotest qcheck_bleu_bounds;
        ] );
      ( "ast_match",
        [
          Alcotest.test_case "self" `Quick test_ast_match_self;
          Alcotest.test_case "rename invariant" `Quick test_ast_match_rename_invariant;
          Alcotest.test_case "different structures" `Quick test_ast_match_different_structures;
        ] );
      ( "codebleu",
        [
          Alcotest.test_case "self" `Quick test_codebleu_self;
          Alcotest.test_case "rename high" `Quick test_codebleu_rename_high;
          Alcotest.test_case "unrelated low" `Quick test_codebleu_unrelated_low;
          Alcotest.test_case "symmetric" `Quick test_codebleu_symmetric;
          Alcotest.test_case "corpus mean" `Quick test_corpus_mean_small;
          Alcotest.test_case "sampled deterministic" `Quick test_corpus_mean_sampled_deterministic;
          Alcotest.test_case "golden corpus means" `Quick test_corpus_mean_golden;
          Alcotest.test_case "max_pairs below 1" `Quick test_corpus_mean_rejects_max_pairs;
          Alcotest.test_case "hash collision" `Quick test_hash_collision;
          Alcotest.test_case "vocabularies" `Quick test_vocabularies;
          Alcotest.test_case "large vocabulary" `Quick test_large_vocabulary;
          Alcotest.test_case "subtree ids over campaigns" `Quick test_subtree_ids;
          QCheck_alcotest.to_alcotest qcheck_codebleu_bounds;
        ] );
      ( "clones",
        [
          Alcotest.test_case "keys" `Quick test_clone_keys;
          Alcotest.test_case "hierarchy" `Quick test_clone_hierarchy;
          Alcotest.test_case "bucket accounting" `Quick test_analyze_buckets;
          Alcotest.test_case "distinct programs" `Quick test_analyze_distinct;
          Alcotest.test_case "type-2 key of the unit text" `Quick
            test_type2_key_of_unit;
        ] );
    ]
