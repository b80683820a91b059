// The benchmark is a module of its own so that it builds from the files
// under bench/ plus whatever checkout it is dropped into: the replace
// directive points at the enclosing repository, and the genconsensus/
// module-path prefix is what lets it import genconsensus/internal/...
module genconsensus/bench

go 1.24

require genconsensus v0.0.0

replace genconsensus => ../
