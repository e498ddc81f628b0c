//! The seeded edit stream of `daemon_edits`.
//!
//! Each of the 21 small corpus programs gets a few fixed variants:
//!
//! * semantic variants change one statement of one action, either a
//!   constant (its lowest bit flips) or a repeated statement, so only the
//!   bugs in that action's slice need new verdicts;
//! * cosmetic variants append a comment to a line or indent one, so the
//!   IR is unchanged and every round-1 verdict can be reused.
//!
//! No edit adds or removes a line, so bug line numbers (part of a bug's
//! identity) stay put. A source is a (semantic, cosmetic) pair; an edit
//! moves one coordinate of one program to another value. Bounding the
//! variants bounds the distinct sources the reference check must verify.

use crate::rng::Rng;

/// Semantic variants per program besides the original.
const SEMANTIC_SITES: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Cosmetic,
    Semantic,
}

/// One statement of an action body that a semantic edit rewrites.
#[derive(Clone, Debug)]
struct Site {
    /// Byte range of the statement (without its `;`).
    start: usize,
    end: usize,
    replacement: String,
}

/// One program's variants.
#[derive(Clone, Debug)]
pub struct Variants {
    pub name: &'static str,
    base: String,
    sites: Vec<Site>,
    /// Line indices of the two cosmetic variants: a trailing comment and
    /// an extra indent.
    comment_line: usize,
    indent_line: usize,
}

impl Variants {
    /// Number of semantic states (the original plus one per site).
    pub fn semantic_states(&self) -> usize {
        self.sites.len() + 1
    }

    /// Non-empty lines of the original program.
    pub fn lines(&self) -> usize {
        self.base.lines().filter(|l| !l.trim().is_empty()).count()
    }

    /// Render semantic state `s` (0 = original) with cosmetic state `c`
    /// (0 = none, 1 = trailing comment, 2 = indent).
    pub fn render(&self, s: usize, c: usize) -> String {
        let mut text = self.base.clone();
        if s > 0 {
            let site = &self.sites[s - 1];
            text.replace_range(site.start..site.end, &site.replacement);
        }
        let mut lines: Vec<String> = text.split('\n').map(str::to_string).collect();
        match c {
            1 => lines[self.comment_line].push_str("  // revised"),
            2 => lines[self.indent_line].insert_str(0, "    "),
            _ => {}
        }
        lines.join("\n")
    }
}

/// Cosmetic states: none, trailing comment, indent.
pub const COSMETIC_STATES: usize = 3;

/// One edit of the stream: the program and the state it moves to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Edit {
    pub program: usize,
    pub kind: Kind,
    pub semantic: usize,
    pub cosmetic: usize,
}

/// Build each program's variants. The semantic sites do not depend on
/// the seed (up to three, spread evenly over the program's candidates),
/// so every seed edits the same statements and only the stream varies;
/// the cosmetic lines are seeded. Every rendered variant must pass the
/// frontend; sites whose rewrite does not are skipped.
pub fn variants(seed: u64, programs: &[(&'static str, String)]) -> Vec<Variants> {
    programs
        .iter()
        .map(|(name, source)| {
            let mut rng = Rng::new(seed, &format!("daemon_edits/variants/{name}"));
            let candidates: Vec<Site> = statement_sites(source)
                .into_iter()
                .filter(|site| {
                    let mut text = source.clone();
                    text.replace_range(site.start..site.end, &site.replacement);
                    bf4_p4::frontend(&text).is_ok()
                })
                .collect();
            let take = candidates.len().min(SEMANTIC_SITES);
            let sites: Vec<Site> = (0..take)
                .map(|k| candidates[k * candidates.len() / take].clone())
                .collect();
            let lines: Vec<usize> = source
                .split('\n')
                .enumerate()
                .filter(|(_, l)| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
                .map(|(i, _)| i)
                .collect();
            let v = Variants {
                name,
                base: source.clone(),
                sites,
                comment_line: lines[rng.below(lines.len())],
                indent_line: lines[rng.below(lines.len())],
            };
            for s in 0..v.semantic_states() {
                for c in 0..COSMETIC_STATES {
                    if let Err(e) = bf4_p4::frontend(&v.render(s, c)) {
                        panic!("{name}: variant ({s}, {c}) fails the frontend: {e}");
                    }
                }
            }
            v
        })
        .collect()
}

/// Edits a program gets per round: `per_line` per non-empty line, as if
/// every edit touched a line drawn from all programs, rounded to an even
/// number (at least 2) so that cosmetic and semantic edits split evenly.
pub fn edits_for(v: &Variants, per_line: f64) -> usize {
    ((v.lines() as f64 * per_line / 2.0).round() as usize).max(1) * 2
}

/// Round `round`'s stream, starting from the original programs: every
/// program gets [`edits_for`] edits, half of them cosmetic and half
/// semantic (all cosmetic for a program without a semantic site), in a
/// seeded order. The mix is the same for every seed, so a seed changes
/// the order and the variants visited, not how much work a round is.
pub fn stream(seed: u64, round: usize, variants: &[Variants], per_line: f64) -> Vec<Edit> {
    let mut rng = Rng::new(seed, &format!("daemon_edits/round/{round}"));
    let mut plan: Vec<(usize, Kind)> = Vec::new();
    for (program, v) in variants.iter().enumerate() {
        for i in 0..edits_for(v, per_line) {
            let semantic = i % 2 == 1 && v.semantic_states() > 1;
            plan.push((
                program,
                if semantic {
                    Kind::Semantic
                } else {
                    Kind::Cosmetic
                },
            ));
        }
    }
    rng.shuffle(&mut plan);
    let mut state = vec![(0usize, 0usize); variants.len()];
    plan.into_iter()
        .map(|(program, kind)| {
            let (s, c) = &mut state[program];
            // Move to a different value of the edited coordinate.
            match kind {
                Kind::Cosmetic => *c = (*c + 1 + rng.below(COSMETIC_STATES - 1)) % COSMETIC_STATES,
                Kind::Semantic => {
                    let n = variants[program].semantic_states();
                    *s = (*s + 1 + rng.below(n - 1)) % n;
                }
            }
            Edit {
                program,
                kind,
                semantic: *s,
                cosmetic: *c,
            }
        })
        .collect()
}

/// Assignments inside action bodies that sit on one line, with their
/// semantic rewrite: a literal right-hand side flips its lowest bit,
/// anything else is repeated.
fn statement_sites(source: &str) -> Vec<Site> {
    let bytes = source.as_bytes();
    let mut sites = Vec::new();
    let mut from = 0;
    while let Some(at) = source[from..].find("action ") {
        let at = from + at;
        from = at + 7;
        if at > 0 && (bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_') {
            continue;
        }
        let Some(open) = source[at..].find('{').map(|o| at + o) else {
            break;
        };
        // A `;` before the `{` means a declaration without a body.
        if source[at..open].contains(';') {
            continue;
        }
        let mut depth = 0;
        let mut close = open;
        for (i, b) in bytes.iter().enumerate().skip(open) {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        close = i;
                        break;
                    }
                }
                _ => {}
            }
        }
        let mut start = open + 1;
        for stmt in source[open + 1..close].split_inclusive(';') {
            let end = start + stmt.len();
            if let Some(stmt_body) = stmt.strip_suffix(';') {
                let lead = stmt_body.len() - stmt_body.trim_start().len();
                let (s, e) = (start + lead, start + stmt_body.len());
                let text = &source[s..e];
                if !text.contains('\n') && !text.contains("//") && !text.contains("/*") {
                    if let Some(replacement) = rewrite(text) {
                        sites.push(Site {
                            start: s,
                            end: e,
                            replacement,
                        });
                    }
                }
            }
            start = end;
        }
        from = close;
    }
    sites
}

fn rewrite(stmt: &str) -> Option<String> {
    let eq = stmt.find('=')?;
    let (lhs, rhs) = (&stmt[..eq], &stmt[eq + 1..]);
    let prev = lhs.chars().last()?;
    if rhs.starts_with('=') || matches!(prev, '!' | '<' | '>' | '=') || lhs.trim().is_empty() {
        return None;
    }
    let value = rhs.trim();
    // `8w5`, `0x800`, `5`: flip the lowest bit of the literal.
    let (width, digits) = match value.split_once('w') {
        Some((w, d)) if !w.is_empty() && w.chars().all(|c| c.is_ascii_digit()) => {
            (format!("{w}w"), d)
        }
        _ => (String::new(), value),
    };
    let parsed = match digits.strip_prefix("0x") {
        Some(hex) => u128::from_str_radix(hex, 16).ok().map(|v| (v, true)),
        None => digits.parse::<u128>().ok().map(|v| (v, false)),
    };
    Some(match parsed {
        Some((v, hex)) => {
            let flipped = if hex {
                format!("0x{:x}", v ^ 1)
            } else {
                (v ^ 1).to_string()
            };
            format!("{lhs}= {width}{flipped}")
        }
        None => format!("{stmt}; {stmt}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rewrites_keep_lines_and_target_statements() {
        assert_eq!(rewrite("x = 1w1").as_deref(), Some("x = 1w0"));
        assert_eq!(rewrite("x = 0x800").as_deref(), Some("x = 0x801"));
        assert_eq!(
            rewrite("a.b = c.d").as_deref(),
            Some("a.b = c.d; a.b = c.d")
        );
        assert_eq!(rewrite("f(x == 1)"), None);
        let src = "action a() { x = 2; f(y); }\ncontrol c() { action b() {\n  y = z;\n} }";
        let sites = statement_sites(src);
        let texts: Vec<&str> = sites.iter().map(|s| &src[s.start..s.end]).collect();
        assert_eq!(texts, ["x = 2", "y = z"]);
    }
}
