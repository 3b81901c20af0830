package phplex

// Version is the lexer's model fingerprint. It participates in the
// incremental-analysis cache key (internal/incremental), so any change to
// the token taxonomy or to how source text is split into tokens must bump
// it: artifacts derived from an older lexical model would otherwise be
// replayed against ASTs the current lexer would no longer produce.
const Version = "phplex-2"
