type error = Non_finite of float | Malformed of string

let error_to_string = function
  | Non_finite x -> Printf.sprintf "Digits.decompose: non-finite input %h" x
  | Malformed s ->
      Printf.sprintf "Digits.decompose: malformed scientific rendering %S" s

let decompose_result x =
  if not (Float.is_finite x) then Error (Non_finite x)
  else
    let s = Printf.sprintf "%.15e" (Float.abs x) in
    (* Format: d.ddddddddddddddde[+-]XX *)
    match String.index_opt s 'e' with
    | None -> Error (Malformed s)
    | Some epos -> (
        let exp_s = String.sub s (epos + 1) (String.length s - epos - 1) in
        match int_of_string_opt exp_s with
        | None -> Error (Malformed s)
        | Some exponent ->
            (* The mantissa's characters up to 'e', less the point, must
               be exactly 16 decimal digits. *)
            let digits = Bytes.create 16 and k = ref 0 and ok = ref true in
            for i = 0 to epos - 1 do
              match s.[i] with
              | '.' -> ()
              | '0' .. '9' as c when !k < 16 -> Bytes.set digits !k c; incr k
              | _ -> ok := false
            done;
            if not !ok || !k <> 16 then Error (Malformed s)
            else Ok (Float.sign_bit x, Bytes.unsafe_to_string digits,
                     if x = 0.0 then 0 else exponent))

let decompose x =
  match decompose_result x with
  | Ok v -> v
  | Error e -> invalid_arg (error_to_string e)

let significand_digits x =
  let _, digits, _ = decompose x in
  digits

type prepared = { value : float; parts : (bool * string * int) Lazy.t }

let prepare x = { value = x; parts = lazy (decompose x) }

let diff_count_prepared a b =
  if Int64.bits_of_float a.value = Int64.bits_of_float b.value then 0
  else if not (Float.is_finite a.value && Float.is_finite b.value) then 16
  else
    let na, da, ea = Lazy.force a.parts in
    let nb, db, eb = Lazy.force b.parts in
    if na <> nb || ea <> eb then 16
    else begin
      let count = ref 0 in
      for i = 0 to 15 do if da.[i] <> db.[i] then incr count done;
      (* Bit patterns differ but all printed digits agree: the divergence
         is below 16 decimal digits; charge the minimum of one digit. *)
      if !count = 0 then 1 else !count
    end

let diff_count a b = diff_count_prepared (prepare a) (prepare b)

module Acc = struct
  type t = { n : int; min_ : int; max_ : int; sum : int }

  let empty = { n = 0; min_ = 0; max_ = 0; sum = 0 }

  let add t d =
    if t.n = 0 then { n = 1; min_ = d; max_ = d; sum = d }
    else
      { n = t.n + 1;
        min_ = Stdlib.min t.min_ d;
        max_ = Stdlib.max t.max_ d;
        sum = t.sum + d }

  let count t = t.n

  let min t =
    if t.n = 0 then invalid_arg "Digits.Acc.min: empty" else t.min_

  let max t =
    if t.n = 0 then invalid_arg "Digits.Acc.max: empty" else t.max_

  let mean t = if t.n = 0 then 0.0 else float_of_int t.sum /. float_of_int t.n

  let raw t = (t.n, t.min_, t.max_, t.sum)
  let of_raw (n, min_, max_, sum) = { n; min_; max_; sum }

  let to_string t =
    if t.n = 0 then "-"
    else Printf.sprintf "(%d/%d/%.2f)" t.min_ t.max_ (mean t)
end
