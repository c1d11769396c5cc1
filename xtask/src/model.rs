//! The workspace model: what the static-analysis passes run over.
//!
//! Each source file is lexed once ([`crate::lexer`]) into its
//! [`SourceFile`] view; an item-level parser then walks that token
//! stream, recognizing `fn` and `impl` items by brace tracking and
//! extracting coarse per-function facts: called names, map-typed
//! local/field names, and determinism-relevant "taints" (wall-clock
//! reads, environment reads, thread creation, unordered map
//! iteration).
//!
//! The model is deliberately coarse — name-based call resolution, no
//! type checking — but it is *deterministic* and errs toward flagging,
//! with `// lint: allow(<rule>)` as the escape hatch.

use std::collections::BTreeSet;
use std::path::Path;

use crate::lexer::{Tok, Token};
use crate::lint::{classify, FileKind, SourceFile};

/// A determinism-relevant construct found inside a function body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaintKind {
    /// `Instant::now` / `SystemTime` — wall-clock reads.
    WallClock,
    /// `std::env::var/args/vars/var_os/temp_dir` — ambient inputs.
    EnvRead,
    /// `thread::spawn` / `thread::scope`.
    ThreadSpawn,
    /// Iteration over a `HashMap`/`HashSet`-typed name.
    MapIter,
}

impl TaintKind {
    /// The finding rule name this taint reports under.
    #[must_use]
    pub fn rule(self) -> &'static str {
        match self {
            TaintKind::WallClock => "det-wallclock",
            TaintKind::EnvRead => "det-env-read",
            TaintKind::ThreadSpawn => "det-thread-spawn",
            TaintKind::MapIter => "det-map-iter",
        }
    }
}

/// One taint site.
#[derive(Clone, Debug)]
pub struct Taint {
    /// What was found.
    pub kind: TaintKind,
    /// 0-based line.
    pub line: usize,
    /// Short description of the construct (`"Instant::now"`).
    pub what: String,
}

/// A function item (free or method) with its coarse body facts.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    /// Names this body calls (last path segment / method name).
    pub calls: BTreeSet<String>,
    /// Determinism taints found in the body.
    pub taints: Vec<Taint>,
}

/// An `impl` block.
#[derive(Clone, Debug)]
pub struct ImplItem {
    /// Trait implemented, if a trait impl (`DirectionPredictor`).
    pub trait_name: Option<String>,
    /// Self type name (last path segment, generics stripped).
    pub type_name: String,
    /// 0-based line of the `impl` keyword.
    pub line: usize,
    /// 0-based line of the block's closing brace.
    pub end_line: usize,
}

/// One parsed source file.
pub struct FileModel {
    /// Workspace-relative path.
    pub rel: String,
    /// Lint classification.
    pub kind: FileKind,
    /// The lexed view: tokens, code lines and markers, shared with the
    /// line rules.
    pub source: SourceFile,
    /// Functions (free and methods), in file order.
    pub fns: Vec<FnItem>,
    /// Impl blocks, in file order.
    pub impls: Vec<ImplItem>,
}

/// The whole workspace, ready for passes.
pub struct Workspace {
    /// Parsed source files, sorted by path.
    pub files: Vec<FileModel>,
}

impl Workspace {
    /// Builds the model for the workspace rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns a message if directories cannot be walked or files read.
    pub fn build(root: &Path) -> Result<Workspace, String> {
        // Vendored shims and xtask fixtures are not modeled.
        let mut paths = Vec::new();
        for top in ["src", "crates", "tests", "examples", "xtask"] {
            let dir = root.join(top);
            if dir.is_dir() {
                walk(&dir, &mut paths).map_err(|e| format!("walking {}: {e}", dir.display()))?;
            }
        }
        paths.sort();

        let mut files = Vec::new();
        for path in &paths {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(path)
                .to_string_lossy()
                .replace('\\', "/");
            let Some(kind) = classify(&rel) else { continue };
            let content =
                std::fs::read_to_string(path).map_err(|e| format!("reading {rel}: {e}"))?;
            files.push(parse_file(&rel, kind, &content));
        }
        Ok(Workspace { files })
    }

    /// The parsed file at workspace-relative path `rel`, if modeled.
    #[must_use]
    pub fn file(&self, rel: &str) -> Option<&FileModel> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy().to_string();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name == ".git" || name == "results" {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Source parsing
// ---------------------------------------------------------------------

const ENV_READS: &[&str] = &["var", "vars", "var_os", "args", "args_os", "temp_dir"];
const MAP_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Parses one file into a [`FileModel`]: one lex, whose tokens the
/// item parser walks.
#[must_use]
pub fn parse_file(rel: &str, kind: FileKind, content: &str) -> FileModel {
    let source = SourceFile::from_source(rel, kind, content);
    let map_names = scan_map_typed_names(&source.tokens);
    let (fns, impls) = parse_items(&source.tokens, &map_names);
    FileModel {
        rel: rel.to_string(),
        kind,
        source,
        fns,
        impls,
    }
}

/// Names (locals and `self` fields) with `HashMap`/`HashSet` types in
/// this file: `let x: HashMap<..>`, `let x = HashMap::new()`,
/// `field: HashMap<..>` in a struct, or a fn param `x: &HashMap<..>`.
fn scan_map_typed_names(toks: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        let Some(id) = toks[i].ident() else { continue };
        if id != "HashMap" && id != "HashSet" {
            continue;
        }
        // Walk backwards over `:` / `=` / `&`/`mut` to the bound name.
        let mut j = i;
        while j > 0 {
            j -= 1;
            match &toks[j].tok {
                Tok::Punct(':') | Tok::Punct('=') | Tok::Punct('&') => continue,
                Tok::Ident(w) if w == "mut" => continue,
                Tok::Ident(name) => {
                    const NOT_BINDINGS: &[&str] = &[
                        "let", "pub", "for", "in", "dyn", "as", "where", "impl", "return",
                    ];
                    if !NOT_BINDINGS.contains(&name.as_str())
                        && !MAP_ITER_METHODS.contains(&name.as_str())
                    {
                        names.insert(name.clone());
                    }
                    break;
                }
                _ => break,
            }
        }
    }
    names
}

/// Item-level parse: walks the token stream tracking brace depth,
/// recording functions (with body facts) and impl blocks.
fn parse_items(toks: &[Token], map_names: &BTreeSet<String>) -> (Vec<FnItem>, Vec<ImplItem>) {
    let mut fns = Vec::new();
    let mut impls = Vec::new();
    let n = toks.len();
    let mut i = 0;
    while i < n {
        if toks[i].is_ident("fn") && i + 1 < n && toks[i + 1].ident().is_some() {
            let name = toks[i + 1].ident().unwrap_or("").to_string();
            let line = toks[i].line;
            let (body_start, body_end) = block_span(toks, i + 2);
            let body = &toks[body_start..body_end];
            fns.push(FnItem {
                name,
                line,
                calls: scan_calls(body),
                taints: scan_taints(body, map_names),
            });
            // Continue *inside* the body: nested fns/closures are rare
            // and their calls are already attributed to this fn; but
            // impl blocks never nest in fn bodies in this workspace,
            // so skipping the signature tokens only is safe and keeps
            // methods visible.
            i = body_start.max(i + 2);
            continue;
        }
        if toks[i].is_ident("impl") {
            if let Some(imp) = parse_impl(toks, i) {
                i = imp.header_end;
                impls.push(imp.item);
                continue;
            }
        }
        i += 1;
    }
    (fns, impls)
}

struct ParsedImpl {
    item: ImplItem,
    /// Token index just past the impl header's opening brace, so the
    /// outer loop still visits the methods inside.
    header_end: usize,
}

/// Parses `impl [<..>] [Trait for] Type [<..>] { ... }` starting at
/// the `impl` token.
fn parse_impl(toks: &[Token], at: usize) -> Option<ParsedImpl> {
    let n = toks.len();
    // Find the opening brace of the impl body, collecting path idents.
    let mut j = at + 1;
    let mut depth_angle = 0i32;
    let mut segs: Vec<String> = Vec::new();
    let mut trait_name: Option<String> = None;
    let mut in_where = false;
    while j < n {
        match &toks[j].tok {
            Tok::Punct('<') => depth_angle += 1,
            Tok::Punct('>') => depth_angle -= 1,
            Tok::Punct('{') if depth_angle <= 0 => break,
            Tok::Punct(';') => return None, // `impl Trait for T;` — not here
            Tok::Ident(w) if w == "for" && depth_angle <= 0 => {
                trait_name = segs.last().cloned();
                segs.clear();
            }
            Tok::Ident(w) if w == "where" && depth_angle <= 0 => {
                // Type name is fixed by now; bound idents are not
                // part of the self-type path.
                in_where = true;
            }
            Tok::Ident(w) if depth_angle <= 0 && !in_where => segs.push(w.clone()),
            _ => {}
        }
        j += 1;
    }
    if j >= n {
        return None;
    }
    let type_name = segs
        .iter()
        .rev()
        .find(|s| !["where", "Send", "Sync", "dyn", "mut"].contains(&s.as_str()))?
        .clone();
    let (_, body_end) = block_span(toks, j);
    Some(ParsedImpl {
        item: ImplItem {
            trait_name,
            type_name,
            line: toks[at].line,
            end_line: toks[body_end - 1].line,
        },
        header_end: j + 1,
    })
}

/// Token span of the `{ ... }` block that follows a signature starting
/// at `from` (skipping to the first `{` at angle-depth 0, then brace
/// matching). Returns `(start, end)` token indices; `start == end`
/// when no block exists (trait method declaration).
pub(crate) fn block_span(toks: &[Token], from: usize) -> (usize, usize) {
    let n = toks.len();
    let mut j = from;
    let mut angle = 0i32;
    let mut group = 0i32; // () and [] nesting in the signature
    while j < n {
        match &toks[j].tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle -= 1,
            Tok::Punct('(') | Tok::Punct('[') => group += 1,
            Tok::Punct(')') | Tok::Punct(']') => group -= 1,
            Tok::Punct('{') if angle <= 0 && group <= 0 => break,
            Tok::Punct(';') if angle <= 0 && group <= 0 => return (j, j),
            _ => {}
        }
        j += 1;
    }
    if j >= n {
        return (n, n);
    }
    let start = j;
    let mut depth = 0i64;
    while j < n {
        match &toks[j].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return (start, j + 1);
                }
            }
            _ => {}
        }
        j += 1;
    }
    (start, n)
}

/// Called names inside a body: `name(`, `.name(`, and `path::name(`.
/// Keywords and control-flow words are excluded.
fn scan_calls(body: &[Token]) -> BTreeSet<String> {
    const NOT_CALLS: &[&str] = &[
        "if", "while", "for", "match", "return", "loop", "fn", "let", "move", "in", "as", "else",
        "unsafe", "Some", "Ok", "Err", "None", "Box", "Vec", "String",
    ];
    let mut out = BTreeSet::new();
    for w in body.windows(2) {
        if let (Tok::Ident(name), Tok::Punct('(')) = (&w[0].tok, &w[1].tok) {
            if !NOT_CALLS.contains(&name.as_str()) {
                out.insert(name.clone());
            }
        }
    }
    out
}

/// Determinism-relevant constructs inside a body.
fn scan_taints(body: &[Token], map_names: &BTreeSet<String>) -> Vec<Taint> {
    let mut out = Vec::new();
    let n = body.len();
    for i in 0..n {
        let Some(id) = body[i].ident() else { continue };
        let line = body[i].line;
        match id {
            "Instant" | "SystemTime" => {
                // `Instant::now()` / `SystemTime::now()` / any other
                // read; bare type mentions in signatures are outside
                // bodies except as constructor paths, so flag the path
                // use `Instant ::` and the call form.
                if matches!(body.get(i + 1).map(|t| &t.tok), Some(Tok::PathSep)) {
                    out.push(Taint {
                        kind: TaintKind::WallClock,
                        line,
                        what: format!(
                            "{id}::{}",
                            body.get(i + 2).and_then(Token::ident).unwrap_or("?")
                        ),
                    });
                }
            }
            "env" => {
                if matches!(body.get(i + 1).map(|t| &t.tok), Some(Tok::PathSep)) {
                    if let Some(call) = body.get(i + 2).and_then(Token::ident) {
                        if ENV_READS.contains(&call) {
                            out.push(Taint {
                                kind: TaintKind::EnvRead,
                                line,
                                what: format!("env::{call}"),
                            });
                        }
                    }
                }
            }
            "thread" => {
                if matches!(body.get(i + 1).map(|t| &t.tok), Some(Tok::PathSep)) {
                    if let Some(call) = body.get(i + 2).and_then(Token::ident) {
                        if call == "spawn" || call == "scope" {
                            out.push(Taint {
                                kind: TaintKind::ThreadSpawn,
                                line,
                                what: format!("thread::{call}"),
                            });
                        }
                    }
                }
            }
            // `.iter()` etc. — resolve the receiver: bare tracked name,
            // or `self.field` with a tracked field name.
            m if MAP_ITER_METHODS.contains(&m)
                && i >= 2
                && body[i - 1].is_punct('.')
                && matches!(body.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('('))) =>
            {
                if let Some(recv) = body[i - 2].ident() {
                    let is_field = recv != "self"
                        && i >= 4
                        && body[i - 3].is_punct('.')
                        && body[i - 4].is_ident("self");
                    let tracked = if is_field || body.get(i.wrapping_sub(3)).is_none() {
                        map_names.contains(recv)
                    } else if recv == "self" {
                        false
                    } else {
                        // Bare local: previous token must not be
                        // `.` (that would make it someone else's
                        // field).
                        !body[i - 3].is_punct('.') && map_names.contains(recv)
                    };
                    if tracked {
                        out.push(Taint {
                            kind: TaintKind::MapIter,
                            line,
                            what: format!("{recv}.{m}()"),
                        });
                    }
                }
            }
            "for" => {
                // `for x in &name` / `for (k, v) in name` over a
                // tracked map name ends up here; ranges and method
                // chains do not match the bare-name pattern.
                let mut j = i + 1;
                let mut depth = 0i32;
                while j < n && !(depth == 0 && body[j].is_ident("in")) {
                    match &body[j].tok {
                        Tok::Punct('(') | Tok::Punct('{') => depth += 1,
                        Tok::Punct(')') | Tok::Punct('}') => depth -= 1,
                        _ => {}
                    }
                    if body[j].is_ident("for") || j > i + 24 {
                        j = n; // bail: not a simple for head
                    }
                    j += 1;
                }
                if j < n {
                    // Skip `&`/`mut` after `in`.
                    let mut k = j + 1;
                    while k < n && (body[k].is_punct('&') || body[k].is_ident("mut")) {
                        k += 1;
                    }
                    // `self . name` or bare `name`, with nothing after
                    // (the `{` of the loop body).
                    let (recv, after) =
                        if k + 2 < n && body[k].is_ident("self") && body[k + 1].is_punct('.') {
                            (body.get(k + 2), k + 3)
                        } else {
                            (body.get(k), k + 1)
                        };
                    if let Some(name) = recv.and_then(Token::ident) {
                        if map_names.contains(name)
                            && body.get(after).is_some_and(|t| t.is_punct('{'))
                        {
                            out.push(Taint {
                                kind: TaintKind::MapIter,
                                line: body[j].line,
                                what: format!("for .. in {name}"),
                            });
                        }
                    }
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        parse_file("crates/x/src/lib.rs", FileKind::Library, src)
    }

    #[test]
    fn fns_and_calls_are_found() {
        let f = model("pub fn a() { b(); x.c(); std::mem::drop(y); }\nfn b() {}\n");
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fns[0].name, "a");
        assert!(f.fns[0].calls.contains("b"));
        assert!(f.fns[0].calls.contains("c"));
        assert!(f.fns[0].calls.contains("drop"));
        assert_eq!(f.fns[1].name, "b");
    }

    #[test]
    fn impls_record_trait_type_and_methods() {
        let src = "impl DirectionPredictor for Bimodal {\n fn lookup(&mut self) {}\n \
                   fn lookup_batch(&mut self) {}\n}\nimpl Bimodal { fn new() {} }\n";
        let f = model(src);
        assert_eq!(f.impls.len(), 2);
        assert_eq!(f.impls[0].trait_name.as_deref(), Some("DirectionPredictor"));
        assert_eq!(f.impls[0].type_name, "Bimodal");
        assert_eq!(f.impls[0].end_line, 3);
        assert_eq!(f.impls[1].trait_name, None);
        // Methods are visible as fns.
        assert!(f.fns.iter().any(|x| x.name == "lookup_batch"));
    }

    #[test]
    fn generic_impl_type_name_strips_generics() {
        let src = "impl<S: InstSource> Machine<'_, S> {\n fn run(&mut self) {}\n}\n";
        let f = model(src);
        assert_eq!(f.impls.len(), 1);
        assert_eq!(f.impls[0].type_name, "Machine");
        assert_eq!(f.impls[0].end_line, 2);
    }

    #[test]
    fn wallclock_env_thread_taints() {
        let src = "fn f() { let t = Instant::now(); }\n\
                   fn g() { let v = std::env::var(\"X\"); }\n\
                   fn h() { std::thread::spawn(|| {}); }\n\
                   fn ok() { let d = Duration::from_secs(1); }\n";
        let f = model(src);
        assert_eq!(f.fns[0].taints[0].kind, TaintKind::WallClock);
        assert_eq!(f.fns[1].taints[0].kind, TaintKind::EnvRead);
        assert_eq!(f.fns[2].taints[0].kind, TaintKind::ThreadSpawn);
        assert!(f.fns[3].taints.is_empty());
    }

    #[test]
    fn map_iteration_taints_resolve_receivers() {
        let src = "struct S { results: HashMap<K, V>, rows: Vec<R> }\n\
                   impl S {\n\
                   fn bad(&self) { for (k, v) in &self.results {} }\n\
                   fn bad2(&self) { let _ = self.results.iter(); }\n\
                   fn ok(&self) { self.rows.iter(); }\n\
                   fn ok2(&self, plan: &Plan) { plan.results.len(); for e in &plan.rows {} }\n\
                   fn local() { let m: HashMap<u32, u32> = HashMap::new(); for x in &m {} m.values(); }\n\
                   }\n";
        let f = model(src);
        let by_name = |n: &str| f.fns.iter().find(|x| x.name == n).unwrap();
        assert_eq!(by_name("bad").taints.len(), 1);
        assert_eq!(by_name("bad").taints[0].kind, TaintKind::MapIter);
        assert_eq!(by_name("bad2").taints.len(), 1);
        assert!(by_name("ok").taints.is_empty());
        assert!(by_name("ok2").taints.is_empty());
        assert_eq!(by_name("local").taints.len(), 2);
    }

    #[test]
    fn foreign_receiver_field_iteration_not_flagged() {
        // `plan.entries.iter()` where `entries` is map-typed *in this
        // file* but the receiver is not `self`: stays quiet (the
        // model cannot see `plan`'s type).
        let src = "struct Q { entries: HashMap<u64, E> }\n\
                   fn f(plan: &Plan) { for (i, e) in plan.entries.iter() {} }\n";
        let f = model(src);
        assert!(f.fns[0].taints.is_empty());
    }
}
