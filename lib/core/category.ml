type t =
  | Code_generation
  | Control_flow
  | Exception_handling
  | Io
  | Memory_system
  | Application

let all = [ Code_generation; Control_flow; Exception_handling; Io; Memory_system ]

let name = function
  | Code_generation -> "Code Generation"
  | Control_flow -> "Control Flow"
  | Exception_handling -> "Exception Handling"
  | Io -> "I/O"
  | Memory_system -> "Memory System"
  | Application -> "Application"
