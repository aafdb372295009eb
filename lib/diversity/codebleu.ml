type summary = {
  tokens : Bleu.table;
  ast : Ast_match.summary;
  edges : Multiset.t;  (* def-use edges, by the ids of their two names *)
}

let keyword_weight tok = if Cparse.Lex.is_keyword tok then 4 else 1
let default_max_pairs = 50_000
let lex p = Cparse.Lex.tokens (Lang.Pp.compute_to_string p)

(* The summary of [p], whose tokens are [toks], in the vocabulary [v]. *)
let summarize_lexed v p toks =
  (* Only identifiers can be keywords. *)
  let weights =
    Array.map (function Cparse.Lex.Ident s -> keyword_weight s | _ -> 1) toks
  in
  let ids =
    Array.map
      (function
        | Cparse.Lex.Float_tok x -> Vocab.float v x
        | tok -> Vocab.string v (Cparse.Lex.to_string tok))
      toks
  in
  let edges =
    Array.of_list
      (List.map
         (fun (e : Analysis.Dataflow.edge) ->
           Vocab.edge v (Vocab.string v e.def) (Vocab.string v e.use))
         (Analysis.Dataflow.edges p))
  in
  {
    tokens = Bleu.table ~weights v ids;
    ast = Ast_match.summarize v p;
    edges = Multiset.of_ids v edges (Array.length edges);
  }

let summarize_in v p = summarize_lexed v p (lex p)

(* The vocabulary of every summary built on its own, behind a lock so that
   any domain may build one; created on first use, so that a process that
   never calls [summarize] does not carry its table. *)
let shared = ref None
let shared_lock = Mutex.create ()

let summarize p =
  Mutex.protect shared_lock (fun () ->
      let v =
        match !shared with
        | Some v -> v
        | None ->
          let v = Vocab.create () in
          shared := Some v;
          v
      in
      summarize_in v p)

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

let corpus_mean ?(max_pairs = default_max_pairs) ~seed programs =
  if max_pairs < 1 then invalid_arg "Codebleu.corpus_mean: max_pairs < 1";
  (* One vocabulary for the call, sized from the corpus's token count;
     the summaries keep only its identity, so the table is garbage once
     the last summary is built. *)
  let lexed = List.map lex programs in
  let tokens = List.fold_left (fun n toks -> n + Array.length toks) 0 lexed in
  let v = Vocab.create ~size:tokens () in
  let summaries = Array.of_list (List.map2 (summarize_lexed v) programs lexed) in
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
