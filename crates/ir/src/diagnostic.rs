//! The unified diagnostic model shared by every checker in the
//! workspace.
//!
//! A [`Diagnostic`] names the rule that fired, a severity, the location
//! (block / instruction / value, each optional), and a human-readable
//! message. The structural verifier ([`crate::verify`]), the SSA
//! verifier (`fcc-ssa`), and the lint framework (`fcc-lint`) all produce
//! this one type, so tooling renders and filters them uniformly — as
//! plain text (with the offending instruction printed via
//! [`crate::print`]) or as JSON for machine consumption.

use std::fmt;

use crate::function::{Block, Function, Inst, Value};

/// How bad a [`Diagnostic`] is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Informational observation (e.g. a parallel-copy cycle that will
    /// cost a temporary). Never fails a check.
    Note,
    /// Suspicious but not invariant-breaking (dead φ, unsplit critical
    /// edge in pre-destruction code).
    Warning,
    /// A broken invariant: the function must not proceed down the
    /// pipeline.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding of a verifier or lint rule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Stable identifier of the rule that fired (e.g. `"ssa-dominance"`).
    pub rule: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// The block the finding is anchored to, if block-local.
    pub block: Option<Block>,
    /// The instruction the finding is anchored to, if any.
    pub inst: Option<Inst>,
    /// The value the finding concerns, if any.
    pub value: Option<Value>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// A new error-severity diagnostic.
    pub fn error(rule: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            severity: Severity::Error,
            block: None,
            inst: None,
            value: None,
            message: message.into(),
        }
    }

    /// A new warning-severity diagnostic.
    pub fn warning(rule: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(rule, message)
        }
    }

    /// A new note-severity diagnostic.
    pub fn note(rule: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Note,
            ..Diagnostic::error(rule, message)
        }
    }

    /// Anchor to a block.
    pub fn in_block(mut self, b: impl Into<Option<Block>>) -> Self {
        self.block = b.into();
        self
    }

    /// Anchor to an instruction.
    pub fn at_inst(mut self, i: impl Into<Option<Inst>>) -> Self {
        self.inst = i.into();
        self
    }

    /// Anchor to a value.
    pub fn on_value(mut self, v: impl Into<Option<Value>>) -> Self {
        self.value = v.into();
        self
    }

    /// Whether this diagnostic fails a check.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// Render with the offending instruction quoted from `func` — the
    /// context line tools print under the headline.
    pub fn render(&self, func: &Function) -> String {
        let mut s = self.to_string();
        if let Some(inst) = self.inst {
            s.push_str(&format!("\n  --> {inst}: {}", func.display_inst(inst)));
        }
        s
    }

    /// Serialise as one JSON object (no external dependencies; the
    /// schema is `{rule, severity, block?, inst?, value?, message,
    /// context?}`).
    pub fn to_json(&self, func: Option<&Function>) -> String {
        let mut fields = vec![
            format!("\"rule\":\"{}\"", json_escape(self.rule)),
            format!("\"severity\":\"{}\"", self.severity),
        ];
        if let Some(b) = self.block {
            fields.push(format!("\"block\":\"{b}\""));
        }
        if let Some(i) = self.inst {
            fields.push(format!("\"inst\":\"{i}\""));
            if let Some(f) = func {
                fields.push(format!(
                    "\"context\":\"{}\"",
                    json_escape(&f.display_inst(i).to_string())
                ));
            }
        }
        if let Some(v) = self.value {
            fields.push(format!("\"value\":\"{v}\""));
        }
        fields.push(format!("\"message\":\"{}\"", json_escape(&self.message)));
        format!("{{{}}}", fields.join(","))
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.rule)?;
        if let Some(b) = self.block {
            write!(f, " in {b}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Escape `s` for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::InstKind;

    #[test]
    fn json_escaping_handles_the_awkward_cases() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn display_carries_rule_and_block() {
        let mut f = Function::new("d");
        let b0 = f.add_block();
        let d = Diagnostic::error("ssa-dominance", "bad use").in_block(b0);
        assert_eq!(d.to_string(), "error[ssa-dominance] in b0: bad use");
        assert!(d.is_error());
        let _ = &f;
    }

    #[test]
    fn render_quotes_the_instruction() {
        let mut f = Function::new("r");
        let b0 = f.add_block();
        let v = f.new_value();
        let i = f.append_inst(b0, InstKind::Const { imm: 7 }, Some(v));
        let d = Diagnostic::warning("phi-pruning", "dead")
            .in_block(b0)
            .at_inst(i);
        let r = d.render(&f);
        assert!(r.contains("const 7"), "{r}");
    }

    #[test]
    fn json_is_escaped_and_complete() {
        let d = Diagnostic::error("structure", "say \"hi\"\nplease");
        let j = d.to_json(None);
        assert_eq!(
            j,
            "{\"rule\":\"structure\",\"severity\":\"error\",\"message\":\"say \\\"hi\\\"\\nplease\"}"
        );
    }

    #[test]
    fn severity_orders_note_warning_error() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }
}
