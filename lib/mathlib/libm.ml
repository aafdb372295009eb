open Lang

type flavor =
  | Glibc
  | Mpfr_fold
  | Llvm_fold
  | Cuda
  | Gcc_fast
  | Clang_fast
  | Cuda_fast

let flavor_name = function
  | Glibc -> "glibc"
  | Mpfr_fold -> "mpfr-fold"
  | Llvm_fold -> "llvm-fold"
  | Cuda -> "cuda-libm"
  | Gcc_fast -> "gcc-fastmath"
  | Clang_fast -> "clang-fastmath"
  | Cuda_fast -> "cuda-fastmath"

(* Divergence profiles. Probabilities are per (function, argument) and were
   calibrated so campaign-level inconsistency rates land in the paper's
   regime (see EXPERIMENTS.md): real libms agree on the overwhelming
   majority of arguments, so per-call divergence is rare even though
   almost every long-running program eventually observes one. *)

let mpfr_profile = Perturb.profile ~salt:0x6D70667231L ~prob:0.04 ~max_ulps:1
let llvm_fold_profile = Perturb.profile ~salt:0x6C6C766DL ~prob:0.04 ~max_ulps:1
let cuda_profile = Perturb.profile ~salt:0x63756461L ~prob:0.5 ~max_ulps:1

(* pow/tan/hypot-class functions have larger vendor spreads. *)
let cuda_hard_profile = Perturb.profile ~salt:0x63756461FFL ~prob:0.65 ~max_ulps:2

let gcc_fast_profile = Perturb.profile ~salt:0x676363L ~prob:0.10 ~max_ulps:2
let clang_fast_profile = Perturb.profile ~salt:0x636C616E67L ~prob:0.10 ~max_ulps:2
let cuda_fast_other_profile = Perturb.profile ~salt:0x637564616646L ~prob:0.30 ~max_ulps:4

let is_hard = function
  | Ast.Pow | Ast.Tan | Ast.Sinh | Ast.Cosh | Ast.Expm1 | Ast.Log1p
  | Ast.Hypot | Ast.Atan2 ->
    true
  | _ -> false

(* The float intrinsics (__sinf and friends) are a few float-ulps off;
   on the F32 grid the divergence profile is correspondingly coarser. *)
let cuda_fast32_profile = Perturb.profile ~salt:0x5F5F66L ~prob:0.6 ~max_ulps:3

let grid_of = function Ast.F64 -> Perturb.F64 | Ast.F32 -> Perturb.F32

(* nvcc's -use_fast_math intrinsics: the polynomial kernels. At F64 they
   are the whole result; the __foof forms carry their own float-ulp
   error on top. *)
let poly_kernel precision grid fn k =
  match precision with
  | Ast.F64 -> k
  | Ast.F32 -> Perturb.wrap1 ~grid cuda_fast32_profile fn k

let kernel1 ?(precision = Ast.F64) flavor fn =
  let grid = grid_of precision in
  let base = Reference.eval1 fn in
  let perturbed p = Perturb.wrap1 ~grid p fn base in
  match flavor with
  | Glibc -> base
  | Mpfr_fold -> perturbed mpfr_profile
  | Llvm_fold -> perturbed llvm_fold_profile
  | Cuda -> perturbed (if is_hard fn then cuda_hard_profile else cuda_profile)
  | Gcc_fast -> perturbed gcc_fast_profile
  | Clang_fast -> perturbed clang_fast_profile
  | Cuda_fast -> (
    let poly = poly_kernel precision grid fn in
    match fn with
    | Ast.Sin -> poly Poly.sin_fast
    | Ast.Cos -> poly Poly.cos_fast
    | Ast.Tan -> poly Poly.tan_fast
    | Ast.Exp -> poly Poly.exp_fast
    | Ast.Exp2 -> poly Poly.exp2_fast
    | Ast.Log -> poly Poly.log_fast
    | Ast.Log2 -> poly Poly.log2_fast
    | Ast.Log10 -> poly Poly.log10_fast
    | _ -> perturbed cuda_fast_other_profile)

(* Fast-math min/max lowering. C's fmin/fmax treat NaN as "missing", but
   under fast math compilers are free to emit a bare compare-and-select.
   gcc selects `a < b ? a : b`, clang the symmetric `b < a ? b : a`, so a
   NaN operand comes out differently per compiler; nvcc's device fast
   path keeps the IEEE number-favoring semantics. *)
let kernel2 ?(precision = Ast.F64) flavor fn =
  let grid = grid_of precision in
  let base = Reference.eval2 fn in
  let perturbed p = Perturb.wrap2 ~grid p fn base in
  match (flavor, fn) with
  | Gcc_fast, Ast.Fmin -> fun (a : float) b -> if a < b then a else b
  | Gcc_fast, Ast.Fmax -> fun (a : float) b -> if a > b then a else b
  | Clang_fast, Ast.Fmin -> fun (a : float) b -> if b < a then b else a
  | Clang_fast, Ast.Fmax -> fun (a : float) b -> if b > a then b else a
  | Glibc, _ -> base
  | Mpfr_fold, _ -> perturbed mpfr_profile
  | Llvm_fold, _ -> perturbed llvm_fold_profile
  | Cuda, _ ->
    perturbed (if is_hard fn then cuda_hard_profile else cuda_profile)
  | Gcc_fast, _ -> perturbed gcc_fast_profile
  | Clang_fast, _ -> perturbed clang_fast_profile
  | Cuda_fast, Ast.Pow -> (
    match precision with
    | Ast.F64 -> Poly.pow_fast
    | Ast.F32 -> Perturb.wrap2 ~grid cuda_fast32_profile fn Poly.pow_fast)
  | Cuda_fast, _ -> perturbed cuda_fast_other_profile

let call ?precision flavor fn args =
  match args with
  | [ x ] -> kernel1 ?precision flavor fn x
  | [ x; y ] -> kernel2 ?precision flavor fn x y
  | _ -> invalid_arg "Libm.call: arity mismatch"

let profiles_doc =
  "glibc: baseline (identity). mpfr-fold: p=0.04, <=1 ulp. llvm-fold: \
   p=0.04, <=1 ulp, distinct salt. cuda-libm: p=0.5 (hard fns 0.65), \
   <=1-2 ulp. gcc/clang-fastmath: p=0.10, <=2 ulp, distinct salts. \
   cuda-fastmath: polynomial kernels for sin/cos/tan/exp/log/pow (~1e-12 \
   rel. err.), p=0.30 <=4 ulp elsewhere."
