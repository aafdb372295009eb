type t = Gcc | Clang | Nvcc

let all = [| Gcc; Clang; Nvcc |]

let name = function Gcc -> "gcc" | Clang -> "clang" | Nvcc -> "nvcc"

let version = function
  | Gcc -> "9.4"
  | Clang -> "12.0"
  | Nvcc -> "12.3"

let is_host = function Gcc | Clang -> true | Nvcc -> false

let pairs = [ (Gcc, Clang); (Gcc, Nvcc); (Clang, Nvcc) ]

let index = function Gcc -> 0 | Clang -> 1 | Nvcc -> 2

let pair_names =
  Array.map
    (fun a -> Array.map (fun b -> Printf.sprintf "%s, %s" (name a) (name b)) all)
    all

let pair_name (a, b) = pair_names.(index a).(index b)

let of_name = function
  | "gcc" -> Some Gcc
  | "clang" -> Some Clang
  | "nvcc" -> Some Nvcc
  | _ -> None
