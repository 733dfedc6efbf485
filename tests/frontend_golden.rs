//! Golden front-end test: lexes and parses every file of the generated
//! corpus (both versions) and pins the token stream and AST size.
//!
//! The digest covers every token's `(kind, text, line)`, so any change to
//! how the lexer splits, classifies or numbers the corpus — however small
//! — fails here, while a pure speed-up of the lexer or parser passes.

use php_lexer::tokenize;
use phpsafe_corpus::{Corpus, Version};
use phpsafe_intern::fnv1a_64_extend;

/// Files and bytes lexed per pass over both corpus versions.
const FILES: usize = 654;
const BYTES: usize = 3_105_965;
/// Token and AST node totals over the same files (benchmark per-layer
/// counters `php-lexer.tokens` and `php-ast.nodes` report these per pass).
const TOKENS: usize = 1_230_574;
const NODES: usize = 428_200;
/// FNV-1a over every token's `(php_name, text, line)`, in corpus order.
const DIGEST: u64 = 0x0db2_f866_e79d_1958;

#[test]
fn corpus_front_end_is_pinned() {
    let corpus = Corpus::generate();
    let (mut files, mut bytes, mut tokens, mut nodes) = (0, 0, 0, 0);
    let mut digest = 0u64;
    for version in Version::ALL {
        for plugin in corpus.plugins() {
            for f in plugin.project(version).files() {
                let src = f.content.as_str();
                let toks = tokenize(src);
                let rebuilt: String = toks.iter().map(|t| t.text).collect();
                assert_eq!(rebuilt, src, "{} does not round-trip", f.path);
                for t in &toks {
                    digest = fnv1a_64_extend(digest, t.kind.php_name().as_bytes());
                    digest = fnv1a_64_extend(digest, &[0]);
                    digest = fnv1a_64_extend(digest, t.text.as_bytes());
                    digest = fnv1a_64_extend(digest, &t.line.to_le_bytes());
                }
                files += 1;
                bytes += src.len();
                tokens += toks.len();
                nodes += php_ast::parse_tokens(toks).node_count();
            }
        }
    }
    assert_eq!((files, bytes), (FILES, BYTES), "corpus shape changed");
    assert_eq!(tokens, TOKENS, "token count");
    assert_eq!(nodes, NODES, "AST node count");
    assert_eq!(digest, DIGEST, "token stream digest: {digest:#018x}");
}
