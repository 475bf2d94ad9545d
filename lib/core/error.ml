type budget_kind = Live_nodes | Matrix_nodes | Deadline

type run_site = {
  gate_index : int;
  strategy : Strategy.t;
  state_nodes : int;
  matrix_nodes : int;
}

type t =
  | Budget_exhausted of {
      kind : budget_kind;
      limit : float;
      actual : float;
      site : run_site;
    }
  | Renormalization_failed of { norm2 : float; site : run_site }
  | Invalid_checkpoint of { source : string; message : string }
  | Width_mismatch of { what : string; expected : int; actual : int }
  | Invalid_parameter of { what : string; message : string }
  | Audit_failure of { violations : string list; site : run_site }

exception Error of t

let budget_kind_to_string = function
  | Live_nodes -> "live-node budget"
  | Matrix_nodes -> "matrix-node budget"
  | Deadline -> "deadline"

let site_to_string site =
  Printf.sprintf
    "at gate %d (strategy %s, state %d nodes, pending matrix %d nodes)"
    site.gate_index
    (Strategy.to_string site.strategy)
    site.state_nodes site.matrix_nodes

let to_string = function
  | Budget_exhausted { kind; limit; actual; site } ->
    Printf.sprintf "%s exhausted: %g > %g %s"
      (budget_kind_to_string kind)
      actual limit (site_to_string site)
  | Renormalization_failed { norm2; site } ->
    Printf.sprintf "renormalization failed: squared norm %g %s" norm2
      (site_to_string site)
  | Invalid_checkpoint { source; message } ->
    Printf.sprintf "invalid checkpoint %s: %s" source message
  | Width_mismatch { what; expected; actual } ->
    Printf.sprintf "%s: expected %d qubits, got %d" what expected actual
  | Invalid_parameter { what; message } ->
    Printf.sprintf "%s: %s" what message
  | Audit_failure { violations; site } ->
    Printf.sprintf "invariant audit failed (%d unrecovered violation%s) %s: %s"
      (List.length violations)
      (if List.length violations = 1 then "" else "s")
      (site_to_string site)
      (String.concat "; " violations)

let pp fmt e = Format.pp_print_string fmt (to_string e)
let raise_error e = raise (Error e)

let invalid_parameter ~what message =
  raise (Error (Invalid_parameter { what; message }))

let () =
  Printexc.register_printer (function
    | Error e -> Some (Printf.sprintf "Dd_sim.Error.Error (%s)" (to_string e))
    | _ -> None)
