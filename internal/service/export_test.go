package service

// FailNextWALOp makes the next segment write ("write") or fsync ("sync") of
// f's journal fail with err, for tests outside the package.
func FailNextWALOp(f *Filter, op string, err error) { f.persist.failOnce(op, err) }
