type kind = Read | Write | Execute

type privilege = User | Kernel

type fault = Translation | Permission

module Ap = struct
  let kernel_only = 0
  let user_read = 1
  let user_full = 2
  let kernel_read = 3

  let permits ~ap ~xn kind priv =
    match kind with
    | Execute ->
      if xn then false
      else (
        match priv with
        | Kernel -> true
        | User -> ap = user_read || ap = user_full)
    | Read -> (
      match priv with
      | Kernel -> true
      | User -> ap = user_read || ap = user_full)
    | Write -> (
      match priv with
      | Kernel -> ap <> kernel_read
      | User -> ap = user_full)
end
