package serve

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/progs"
)

// The server's failure surface, mapped onto HTTP. Admission failures are
// sentinel errors (the scheduler returns them); request failures carry a
// code so clients can branch without parsing prose.

var (
	// ErrDraining rejects new runs while the server is shutting down:
	// in-flight runs complete, nothing new is admitted.
	ErrDraining = errors.New("server is draining")
	// ErrQueueFull rejects a run when the FIFO admission queue is at
	// capacity — the server is overloaded, retry with backoff.
	ErrQueueFull = errors.New("admission queue full")
	// ErrDeadline rejects a run whose deadline expired while it was still
	// queued (runs are never cancelled mid-flight; the deadline bounds the
	// wait for a slot).
	ErrDeadline = errors.New("deadline expired while queued")
	// ErrPoolClosed rejects a checkout after the pool has been drained.
	ErrPoolClosed = errors.New("system pool closed")
)

// Error codes in the JSON error envelope.
const (
	CodeBadRequest = "bad_request" // malformed body, unknown field, program or transport, bad args
	CodeBadArgs    = "bad_args"    // program args rejected by their schema (Arg names the field)
	CodeDraining   = "draining"    // server shutting down
	CodeQueueFull  = "queue_full"  // admission queue at capacity
	CodeDeadline   = "deadline"    // deadline expired while queued
	CodeRunFailed  = "run_failed"  // the simulation itself failed (e.g. deadlock)
	CodeVerify     = "verify_failed"
	CodeInternal   = "internal"
)

// BadRequestError marks a client-side validation failure: malformed body,
// unknown field, program or transport, a grid beyond the server's caps, or
// a System configuration the constructor rejected.
type BadRequestError struct{ Msg string }

func (e *BadRequestError) Error() string { return e.Msg }

// RunError marks a simulation that was admitted and then failed — a
// deadlock, a lost ipc worker, a program-body error. The System it ran on
// is discarded, never pooled.
type RunError struct {
	Program string
	Err     error
}

func (e *RunError) Error() string { return fmt.Sprintf("run %s: %v", e.Program, e.Err) }
func (e *RunError) Unwrap() error { return e.Err }

// VerifyError marks a verify-mode request whose two runs on the same
// checked-out System were not bit-identical — the pool's Reset-reuse
// contract failed, and the System was discarded.
type VerifyError struct {
	Program string
	Result  VerifyResult
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("verify %s: runs not bit-identical (values=%v census=%v times=%v)",
		e.Program, e.Result.ValuesIdentical, e.Result.CensusIdentical, e.Result.TimesIdentical)
}

// ErrorBody is the JSON error envelope every non-2xx response carries.
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	// Arg carries the structured argument rejection when Code is
	// bad_args: which argument, what range was allowed.
	Arg *progs.ArgError `json:"arg,omitempty"`
}

// httpStatus maps an admission/run error to its status code and envelope.
func errorEnvelope(err error) (int, ErrorBody) {
	switch {
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, ErrorBody{Error: err.Error(), Code: CodeDraining}
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, ErrorBody{Error: err.Error(), Code: CodeQueueFull}
	case errors.Is(err, ErrDeadline):
		return http.StatusGatewayTimeout, ErrorBody{Error: err.Error(), Code: CodeDeadline}
	}
	var ae *progs.ArgError
	if errors.As(err, &ae) {
		return http.StatusBadRequest, ErrorBody{Error: err.Error(), Code: CodeBadArgs, Arg: ae}
	}
	var bad *BadRequestError
	if errors.As(err, &bad) {
		return http.StatusBadRequest, ErrorBody{Error: err.Error(), Code: CodeBadRequest}
	}
	var ve *VerifyError
	if errors.As(err, &ve) {
		return http.StatusInternalServerError, ErrorBody{Error: err.Error(), Code: CodeVerify}
	}
	var re *RunError
	if errors.As(err, &re) {
		return http.StatusUnprocessableEntity, ErrorBody{Error: err.Error(), Code: CodeRunFailed}
	}
	return http.StatusInternalServerError, ErrorBody{Error: err.Error(), Code: CodeInternal}
}
