package tsched

// RetryLadder is the trace-length ladder compileOneInner descends on register
// pressure, for the external allocator tests that walk it themselves.
var RetryLadder = retryLadder
