(** Baseline comparison over the committed [BENCH_*.json] files — the
    engine behind [ddsim bench-check].

    A benchmark document is an object with a [schema] string and a [runs]
    array; each run carries string identity fields (benchmark / circuit /
    mode / strategy) and numeric metrics, possibly with nested arrays of
    named sub-objects (compute tables).  The comparator walks baseline
    and candidate in lockstep, pairing runs (and nested table entries) by
    their identity fields, and classifies every numeric metric by name:

    - {e informational} metrics (ledger timing leaves: [ledger_*] with
      [seconds] or [coverage] in the name): attributed seconds are
      scheduling-dependent and nondeterministic from run to run, so they
      are recorded in the documents but never compared — no tolerance,
      no finding.  Checked before the other classes
      ([ledger_mat_vec_seconds] would otherwise classify as a time
      metric);
    - {e time} metrics ([*seconds*]): noisy across machines — a candidate
      may regress by at most [time_ratio] times the baseline; faster
      always passes;
    - {e rate} metrics ([*_rate]): compared with the absolute tolerance
      [rate_tol];
    - everything else is a {e count} (node counts, multiplication and
      lookup counters): deterministic for a given code revision, allowed
      to drift by at most the [count_ratio] fraction of the baseline.

    Missing runs, missing metrics and changed identity fields are always
    failures.  Extra runs or metrics in the candidate are informational.
    Arrays of numbers (trajectories) are not compared element-wise. *)

type tolerances = {
  time_ratio : float;  (** candidate time may be up to [ratio] x baseline *)
  count_ratio : float;  (** allowed fractional drift of counter metrics *)
  rate_tol : float;  (** absolute tolerance for [*_rate] metrics *)
}

val default : tolerances
(** [time_ratio = 10.], [count_ratio = 0.1], [rate_tol = 0.15] — generous
    enough for cross-machine CI, tight enough that an algorithmic
    regression (more multiplications, bigger DDs) fails. *)

type severity = Regression | Note

type finding = {
  severity : severity;
  path : string;  (** e.g. ["runs[ghz_12/seq].final_state_nodes"] *)
  message : string;
}

val compare_strings :
  ?tol:tolerances -> baseline:string -> string -> finding list
(** Regressions first, stable order.  Parses both documents; a parse
    failure is reported as a regression finding rather than raised. *)

val regressed : finding list -> bool
(** [true] when any finding is a {!Regression}. *)

val render : finding list -> string
(** Human-readable report; ends with a one-line verdict. *)
