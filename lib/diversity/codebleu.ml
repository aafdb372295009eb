type summary = {
  tokens : Bleu.table;
  ast : Ast_match.summary;
  edges : Multiset.t;  (* def-use edges keyed "def\x00use" *)
}

let keyword_weight tok = if Cparse.Lex.is_keyword tok then 4 else 1

let tokens_of intern (p : Lang.Ast.program) =
  Array.map
    (fun tok -> intern (Cparse.Lex.to_string tok))
    (Cparse.Lex.tokens (Lang.Pp.compute_to_string p))

(* [intern] maps every string the summary keeps (token, subtree
   rendering, edge) to the copy it stores. *)
let summarize_with intern p =
  let edges =
    Analysis.Dataflow.edges p
    |> List.map (fun (e : Analysis.Dataflow.edge) ->
           intern (e.def ^ "\x00" ^ e.use))
  in
  {
    tokens = Bleu.table ~weight:keyword_weight (tokens_of intern p);
    ast = Ast_match.summarize ~intern p;
    edges = Multiset.of_array (Array.of_list edges);
  }

let summarize p = summarize_with Fun.id p

(* The clipped matches of two summaries, component by component. Σ min is
   symmetric, so one overlap scores both directions of a pair. *)
type overlap = { grams : Bleu.overlap; trees : int; edges : int }

let overlap a b =
  {
    grams = Bleu.overlap a.tokens b.tokens;
    trees = fst (Multiset.inter a.ast b.ast);
    edges = fst (Multiset.inter a.edges b.edges);
  }

(* CodeBLEU of one direction of a pair, from the pair's overlap. *)
let directed ov ~candidate ~reference =
  let bleu =
    Bleu.directed ~candidate:candidate.tokens ~reference:reference.tokens
      ov.grams
  in
  let wbleu =
    Bleu.directed ~weighted:true ~candidate:candidate.tokens
      ~reference:reference.tokens ov.grams
  in
  let ast = Multiset.fraction candidate.ast ov.trees in
  let df = Multiset.fraction candidate.edges ov.edges in
  0.25 *. (bleu +. wbleu +. ast +. df)

let pair_score ~candidate ~reference =
  directed (overlap candidate reference) ~candidate ~reference

let symmetric a b =
  let ov = overlap a b in
  0.5
  *. (directed ov ~candidate:a ~reference:b
     +. directed ov ~candidate:b ~reference:a)

let corpus_mean ?(max_pairs = 200_000) ~seed programs =
  if max_pairs < 1 then invalid_arg "Codebleu.corpus_mean: max_pairs < 1";
  (* One shared copy of each equal string, so that equal tokens,
     subtrees and edges of different programs compare by pointer. The
     table lives for this call only. *)
  let shared = Hashtbl.create 4096 in
  let intern s =
    match Hashtbl.find_opt shared s with
    | Some s -> s
    | None ->
      Hashtbl.add shared s s;
      s
  in
  let summaries = Array.of_list (List.map (summarize_with intern) programs) in
  let n = Array.length summaries in
  if n < 2 then 0.0
  else begin
    let total_pairs = n * (n - 1) / 2 in
    if total_pairs <= max_pairs then begin
      let sum = ref 0.0 in
      for i = 0 to n - 2 do
        for j = i + 1 to n - 1 do
          sum := !sum +. symmetric summaries.(i) summaries.(j)
        done
      done;
      !sum /. float_of_int total_pairs
    end
    else begin
      let rng = Util.Rng.of_int seed in
      let sum = ref 0.0 in
      for _ = 1 to max_pairs do
        let i = Util.Rng.int rng n in
        let j = ref (Util.Rng.int rng n) in
        while !j = i do j := Util.Rng.int rng n done;
        sum := !sum +. symmetric summaries.(i) summaries.(!j)
      done;
      !sum /. float_of_int max_pairs
    end
  end
