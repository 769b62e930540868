// The benchmark is a module of its own so that the root module's build and
// tests do not depend on it; the semandaq/ path prefix keeps the root
// module's internal/ packages importable.
module semandaq/benchmark

go 1.24

require semandaq v0.0.0

replace semandaq => ../
