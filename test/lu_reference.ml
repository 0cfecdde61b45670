(* Reference left-looking sparse LU: the plain dense-scan elimination
   (every previous factor step is visited for every column) with dense
   FTRAN/BTRAN.  Lina.Lu.Sparse.factorize must reproduce its factors bit
   for bit; this file is the oracle those property tests compare to. *)

type t = {
  n : int;
  l_ptr : int array;
  l_idx : int array;  (* factor rows, remapped after elimination *)
  l_val : float array;
  u_ptr : int array;
  u_idx : int array;
  u_val : float array;
  u_diag : float array;
  p : int array;
  q : int array;
}

let nnz f = Array.length f.l_idx + Array.length f.u_idx + f.n

let factorize ~n ~col =
  (* Static column order: ascending entry count, index as tie-break. *)
  let counts = Array.make n 0 in
  for j = 0 to n - 1 do
    col j (fun _ _ -> counts.(j) <- counts.(j) + 1)
  done;
  let q = Array.init n (fun j -> j) in
  Array.sort
    (fun a b ->
      match compare counts.(a) counts.(b) with 0 -> compare a b | c -> c)
    q;
  let p = Array.make n (-1) and pinv = Array.make n (-1) in
  let x = Array.make n 0.0 and mark = Array.make n (-1) in
  let touched = Array.make n 0 in
  let l_idx = ref [] and u_idx = ref [] in
  let nl = ref 0 and nu = ref 0 in
  let l_ptr = Array.make (n + 1) 0 and u_ptr = Array.make (n + 1) 0 in
  let l_cols = Array.make n [||] in
  let u_diag = Array.make n 0.0 in
  for jf = 0 to n - 1 do
    let ntouch = ref 0 in
    let touch i =
      if mark.(i) <> jf then begin
        mark.(i) <- jf;
        touched.(!ntouch) <- i;
        incr ntouch
      end
    in
    col q.(jf) (fun i v ->
        touch i;
        x.(i) <- x.(i) +. v);
    for kf = 0 to jf - 1 do
      let ukj = x.(p.(kf)) in
      if ukj <> 0.0 then begin
        u_idx := (kf, ukj) :: !u_idx;
        incr nu;
        Array.iter
          (fun (i, l) ->
            touch i;
            x.(i) <- x.(i) -. (l *. ukj))
          l_cols.(kf)
      end
    done;
    u_ptr.(jf + 1) <- !nu;
    let piv = ref (-1) and piv_val = ref Lina.Tol.pivot in
    for k = 0 to !ntouch - 1 do
      let i = touched.(k) in
      if pinv.(i) < 0 then begin
        let a = Float.abs x.(i) in
        if a > !piv_val || (a = !piv_val && (!piv < 0 || i < !piv)) then begin
          piv := i;
          piv_val := a
        end
      end
    done;
    if !piv < 0 then raise (Lina.Lu.Singular jf);
    p.(jf) <- !piv;
    pinv.(!piv) <- jf;
    let d = x.(!piv) in
    u_diag.(jf) <- d;
    let col_l = ref [] in
    for k = 0 to !ntouch - 1 do
      let i = touched.(k) in
      if pinv.(i) < 0 && x.(i) <> 0.0 then col_l := (i, x.(i) /. d) :: !col_l;
      x.(i) <- 0.0
    done;
    l_cols.(jf) <- Array.of_list (List.rev !col_l);
    l_idx := List.rev_append (Array.to_list l_cols.(jf)) !l_idx;
    nl := !nl + Array.length l_cols.(jf);
    l_ptr.(jf + 1) <- !nl
  done;
  let l = Array.of_list (List.rev !l_idx) in
  let u = Array.of_list (List.rev !u_idx) in
  {
    n;
    l_ptr;
    l_idx = Array.map (fun (i, _) -> pinv.(i)) l;
    l_val = Array.map snd l;
    u_ptr;
    u_idx = Array.map fst u;
    u_val = Array.map snd u;
    u_diag;
    p;
    q;
  }

(* B x = b: [b] by original row in, by basis position out. *)
let ftran f b =
  let n = f.n in
  let w = Array.init n (fun i -> b.(f.p.(i))) in
  for jf = 0 to n - 1 do
    let t = w.(jf) in
    if t <> 0.0 then
      for e = f.l_ptr.(jf) to f.l_ptr.(jf + 1) - 1 do
        w.(f.l_idx.(e)) <- w.(f.l_idx.(e)) -. (f.l_val.(e) *. t)
      done
  done;
  for jf = n - 1 downto 0 do
    let t = w.(jf) /. f.u_diag.(jf) in
    w.(jf) <- t;
    if t <> 0.0 then
      for e = f.u_ptr.(jf) to f.u_ptr.(jf + 1) - 1 do
        w.(f.u_idx.(e)) <- w.(f.u_idx.(e)) -. (f.u_val.(e) *. t)
      done
  done;
  let x = Array.make n 0.0 in
  Array.iteri (fun jf v -> x.(f.q.(jf)) <- v) w;
  x

(* Bᵀ y = c: [c] by basis position in, by original row out. *)
let btran f c =
  let n = f.n in
  let w = Array.init n (fun jf -> c.(f.q.(jf))) in
  for jf = 0 to n - 1 do
    let acc = ref w.(jf) in
    for e = f.u_ptr.(jf) to f.u_ptr.(jf + 1) - 1 do
      acc := !acc -. (f.u_val.(e) *. w.(f.u_idx.(e)))
    done;
    w.(jf) <- !acc /. f.u_diag.(jf)
  done;
  for jf = n - 1 downto 0 do
    let acc = ref w.(jf) in
    for e = f.l_ptr.(jf) to f.l_ptr.(jf + 1) - 1 do
      acc := !acc -. (f.l_val.(e) *. w.(f.l_idx.(e)))
    done;
    w.(jf) <- !acc
  done;
  let y = Array.make n 0.0 in
  Array.iteri (fun jf v -> y.(f.p.(jf)) <- v) w;
  y
