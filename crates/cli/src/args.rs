//! Minimal flag parser (no external dependency): `--name value` pairs
//! after a subcommand.

use std::collections::BTreeMap;

/// Flags that take no value; their presence means `true`. Registered here
/// so `--explain` never swallows the next token as its "value" while
/// `query --graph` (a value flag with nothing after it) still errors.
const BOOL_FLAGS: &[&str] = &["explain", "progress", "mmap", "verify-on-load", "prefault"];

/// A failed invocation. `usage` marks a mistake in the command line
/// itself (an unknown flag, a missing or unparsable value), after which
/// the usage text helps; any other failure (I/O, a rejected edit batch,
/// a server's refusal) is reported as its one error line.
#[derive(Debug)]
pub struct CliError {
    /// The error line, without the `error: ` prefix.
    pub message: String,
    /// Whether the usage text should follow the error line.
    pub usage: bool,
}

impl CliError {
    /// An argument error: the usage text follows it.
    pub fn usage(message: impl Into<String>) -> Self {
        CliError { message: message.into(), usage: true }
    }
}

/// A runtime failure: just the error line.
impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError { message, usage: false }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        message.to_string().into()
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Parsed command line: subcommand plus `--flag value` pairs.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    /// Each flag's value; `None` for a value flag given none.
    flags: BTreeMap<String, Option<String>>,
}

impl Args {
    /// Parses `argv` (without the program name). A value flag followed by
    /// another flag, or by nothing, has no value; [`Args::ensure_known`]
    /// reports that once the flag is known to the command, so an unknown
    /// switch is named as unknown and never takes the next flag's place.
    pub fn parse(argv: &[String]) -> Result<Args, CliError> {
        let mut it = argv.iter().peekable();
        let command = it.next().ok_or_else(|| CliError::usage("missing subcommand"))?.clone();
        if command.starts_with("--") {
            return Err(CliError::usage(format!("expected a subcommand, found flag {command}")));
        }
        let mut flags = BTreeMap::new();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| CliError::usage(format!("expected --flag, found {flag}")))?;
            let value = if BOOL_FLAGS.contains(&name) {
                Some("true".to_string())
            } else {
                it.next_if(|v| !v.starts_with("--")).cloned()
            };
            if flags.insert(name.to_string(), value).is_some() {
                return Err(CliError::usage(format!("duplicate flag --{name}")));
            }
        }
        Ok(Args { command, flags })
    }

    /// Required string flag.
    pub fn req(&self, name: &str) -> Result<&str, CliError> {
        self.opt(name).ok_or_else(|| CliError::usage(format!("missing required flag --{name}")))
    }

    /// Optional string flag.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.flags.get(name).and_then(Option::as_deref)
    }

    /// Optional parsed flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError>
    where
        T::Err: std::fmt::Display,
    {
        match self.opt(name) {
            None => Ok(default),
            Some(v) => v.parse::<T>().map_err(|e| CliError::usage(format!("--{name}: {e}"))),
        }
    }

    /// Required parsed flag.
    pub fn get_req<T: std::str::FromStr>(&self, name: &str) -> Result<T, CliError>
    where
        T::Err: std::fmt::Display,
    {
        self.req(name)?.parse::<T>().map_err(|e| CliError::usage(format!("--{name}: {e}")))
    }

    /// Optional comma-separated list flag (e.g. `--vertices 3,17,99`).
    /// Empty items are ignored; `Some(vec![])` means the flag was present
    /// but named no values.
    pub fn get_list<T: std::str::FromStr>(&self, name: &str) -> Result<Option<Vec<T>>, CliError>
    where
        T::Err: std::fmt::Display,
    {
        match self.opt(name) {
            None => Ok(None),
            Some(raw) => raw
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|s| s.parse::<T>().map_err(|e| CliError::usage(format!("--{name}: `{s}`: {e}"))))
                .collect::<Result<Vec<T>, CliError>>()
                .map(Some),
        }
    }

    /// Presence of a registered boolean flag (e.g. `--explain`).
    pub fn flag(&self, name: &str) -> bool {
        debug_assert!(BOOL_FLAGS.contains(&name), "--{name} is not a registered boolean flag");
        self.flags.contains_key(name)
    }

    /// Rejects flags outside `allowed` (catches typos), then a known value
    /// flag given no value.
    pub fn ensure_known(&self, allowed: &[&str]) -> Result<(), CliError> {
        for k in self.flags.keys() {
            if !allowed.contains(&k.as_str()) {
                return Err(CliError::usage(format!("unknown flag --{k} for `{}`", self.command)));
            }
        }
        match self.flags.iter().find(|(_, v)| v.is_none()) {
            Some((k, _)) => Err(CliError::usage(format!("missing value for --{k}"))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, CliError> {
        Args::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_command_and_flags() {
        let a = parse("query --graph g.bin --vertex 7 --k 20").unwrap();
        assert_eq!(a.command, "query");
        assert_eq!(a.req("graph").unwrap(), "g.bin");
        assert_eq!(a.get_req::<u32>("vertex").unwrap(), 7);
        assert_eq!(a.get_or::<usize>("k", 5).unwrap(), 20);
        assert_eq!(a.get_or::<usize>("missing", 5).unwrap(), 5);
    }

    /// `line` parsed and checked against `allowed`, as every command does.
    fn checked(line: &str, allowed: &[&str]) -> Result<Args, CliError> {
        parse(line).and_then(|a| a.ensure_known(allowed).map(|()| a))
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("").is_err());
        assert!(parse("--graph g.bin").is_err());
        assert!(checked("query --graph", &["graph"]).is_err());
        assert!(parse("query graph g.bin").is_err());
        assert!(parse("query --k 1 --k 2").is_err());
    }

    #[test]
    fn comma_separated_lists() {
        let a = parse("batch-query --vertices 3,17,99").unwrap();
        assert_eq!(a.get_list::<u32>("vertices").unwrap(), Some(vec![3, 17, 99]));
        assert_eq!(a.get_list::<u32>("missing").unwrap(), None);
        let spaced = parse("batch-query --vertices 1,,2,").unwrap();
        assert_eq!(spaced.get_list::<u32>("vertices").unwrap(), Some(vec![1, 2]));
        let bad = parse("batch-query --vertices 1,banana").unwrap();
        let err = bad.get_list::<u32>("vertices").unwrap_err();
        assert!(err.usage && err.message.contains("banana"), "{err}");
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let a = parse("query --graph g.bin --explain --vertex 7").unwrap();
        assert!(a.flag("explain"));
        assert_eq!(a.req("graph").unwrap(), "g.bin");
        assert_eq!(a.get_req::<u32>("vertex").unwrap(), 7);
        let b = parse("preprocess --progress --graph g.bin").unwrap();
        assert!(b.flag("progress"));
        assert!(!parse("query --graph g.bin").unwrap().flag("explain"));
        // Trailing boolean flag is fine; trailing value flag still errors.
        assert!(checked("query --explain", &["explain"]).is_ok());
        assert!(checked("query --graph", &["graph"]).is_err());
    }

    #[test]
    fn a_value_flag_never_takes_the_next_flag() {
        // A value flag followed by a flag, or by nothing, has no value: the
        // command reports it as unknown if it is, and as valueless if not.
        for line in ["query --retired --k 5", "query --k 5 --retired"] {
            let err = checked(line, &["k"]).unwrap_err();
            assert!(err.usage && err.message.starts_with("unknown flag --retired"), "{line}: {err}");
            let a = parse(line).unwrap();
            assert_eq!(a.get_or::<usize>("k", 1).unwrap(), 5, "{line}: --k keeps its value");
        }
        for line in ["query --graph --k 5", "query --k 5 --graph"] {
            let err = checked(line, &["graph", "k"]).unwrap_err();
            assert_eq!(err.message, "missing value for --graph", "{line}");
        }
        // A value that merely starts with '-' is still a value.
        assert_eq!(checked("query --theta -1", &["theta"]).unwrap().opt("theta"), Some("-1"));
    }

    #[test]
    fn unknown_flag_detection() {
        let a = parse("stats --graph g.bin --typo x").unwrap();
        assert!(a.ensure_known(&["graph"]).is_err());
        assert!(a.ensure_known(&["graph", "typo"]).is_ok());
    }

    #[test]
    fn parse_errors_carry_flag_name() {
        let a = parse("query --vertex banana").unwrap();
        let err = a.get_req::<u32>("vertex").unwrap_err();
        assert!(err.usage && err.message.contains("--vertex"), "{err}");
    }
}
