let eps = 1e-9
let feas = 1e-7
let pivot = 1e-8

let is_zero ?(tol = eps) x = Float.abs x <= tol
