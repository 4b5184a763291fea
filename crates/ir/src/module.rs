//! The [`Module`] container: many named functions, one compilation unit.
//!
//! Per-function analyses in this workspace are independent by
//! construction — every `AnalysisManager` is keyed to one [`Function`]'s
//! modification epoch — so a module is deliberately nothing more than an
//! ordered list of functions with unique names. That ordering is load
//! bearing: the batch driver (`fcc-driver`) compiles members on many
//! threads and merges results **in module order**, which is what makes
//! `fcc --jobs N` byte-deterministic regardless of scheduling.
//!
//! The textual format is the function format repeated, separated by
//! blank lines, and round-trips through [`crate::parse::parse_module`]:
//!
//! ```text
//! function @first(1) {
//! b0:
//!     v0 = param 0
//!     return v0
//! }
//!
//! function @second(0) {
//! b0:
//!     return
//! }
//! ```

use std::fmt;

use crate::function::Function;

/// An ordered collection of named functions.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Module {
    functions: Vec<Function>,
}

impl Module {
    /// An empty module.
    pub fn new() -> Self {
        Module::default()
    }

    /// Build a module from functions, rejecting duplicate names.
    ///
    /// # Errors
    /// Returns the first duplicated function name.
    pub fn from_functions(functions: Vec<Function>) -> Result<Self, String> {
        let mut m = Module::new();
        for f in functions {
            m.push(f)?;
        }
        Ok(m)
    }

    /// Append a function; names must be unique within the module.
    ///
    /// # Errors
    /// Returns the name when a function with it already exists.
    pub fn push(&mut self, func: Function) -> Result<(), String> {
        if self.get(&func.name).is_some() {
            return Err(func.name);
        }
        self.functions.push(func);
        Ok(())
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// Whether the module holds no functions.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// The functions in module (input) order.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// Consume the module, yielding its functions in module order.
    pub fn into_functions(self) -> Vec<Function> {
        self.functions
    }

    /// Find a function by name.
    pub fn get(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Iterate over the functions in module order.
    pub fn iter(&self) -> std::slice::Iter<'_, Function> {
        self.functions.iter()
    }
}

impl From<Function> for Module {
    fn from(func: Function) -> Self {
        Module {
            functions: vec![func],
        }
    }
}

impl<'a> IntoIterator for &'a Module {
    type Item = &'a Function;
    type IntoIter = std::slice::Iter<'a, Function>;
    fn into_iter(self) -> Self::IntoIter {
        self.functions.iter()
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, func) in self.functions.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
                writeln!(f)?;
            }
            write!(f, "{func}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_module;

    fn func(name: &str) -> Function {
        crate::parse::parse_function(&format!("function @{name}(0) {{\nb0:\n return\n}}")).unwrap()
    }

    #[test]
    fn push_rejects_duplicate_names() {
        let mut m = Module::new();
        m.push(func("a")).unwrap();
        m.push(func("b")).unwrap();
        assert_eq!(m.push(func("a")), Err("a".to_string()));
        assert_eq!(m.len(), 2);
        assert!(m.get("b").is_some());
        assert!(m.get("c").is_none());
    }

    #[test]
    fn display_roundtrips_through_parse_module() {
        let m = Module::from_functions(vec![func("one"), func("two"), func("three")]).unwrap();
        let printed = m.to_string();
        let reparsed = parse_module(&printed).unwrap();
        assert_eq!(printed, reparsed.to_string());
        let names: Vec<&str> = reparsed.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["one", "two", "three"]);
    }

    #[test]
    fn single_function_module_prints_like_the_function() {
        let f = func("solo");
        let text = f.to_string();
        let m = Module::from(f);
        assert_eq!(m.to_string(), text);
    }
}
