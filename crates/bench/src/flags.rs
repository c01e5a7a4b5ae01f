//! The one command-line parser of the bench binaries: `--flag value`
//! pairs, bare `--flag` switches, repeated flags and comma lists.

use std::str::FromStr;

/// A binary's flags as given on the command line, in order.
#[derive(Debug)]
pub struct Flags {
    given: Vec<(String, Option<String>)>,
}

impl Flags {
    /// Parse the process's arguments. A flag in `valued` takes the next
    /// argument as its value, a flag in `switches` takes none, and
    /// anything else panics with `unknown argument`.
    pub fn parse(valued: &[&str], switches: &[&str]) -> Flags {
        Flags::from_args(std::env::args().skip(1), valued, switches)
    }

    fn from_args(
        mut argv: impl Iterator<Item = String>,
        valued: &[&str],
        switches: &[&str],
    ) -> Flags {
        let mut given = Vec::new();
        while let Some(flag) = argv.next() {
            let value = if valued.contains(&flag.as_str()) {
                Some(
                    argv.next()
                        .unwrap_or_else(|| panic!("{flag} takes a value")),
                )
            } else if switches.contains(&flag.as_str()) {
                None
            } else {
                panic!("unknown argument `{flag}`");
            };
            given.push((flag, value));
        }
        Flags { given }
    }

    /// Whether the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| f == flag)
    }

    /// Every value given for a repeatable `flag`, in order.
    pub fn all<T: FromStr>(&self, flag: &str) -> Vec<T> {
        self.given
            .iter()
            .filter(|(f, _)| f == flag)
            .filter_map(|(_, v)| v.as_deref())
            .map(|v| parse_value(flag, v))
            .collect()
    }

    /// The last value given for `flag`, if any.
    pub fn opt<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.all(flag).pop()
    }

    /// The last value given for `flag`, or `default`.
    pub fn get<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.opt(flag).unwrap_or(default)
    }

    /// The last comma-separated list given for `flag`, or `default`.
    pub fn list<T: FromStr>(&self, flag: &str, default: Vec<T>) -> Vec<T> {
        match self.opt::<String>(flag) {
            Some(list) => list.split(',').map(|v| parse_value(flag, v)).collect(),
            None => default,
        }
    }
}

fn parse_value<T: FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| panic!("{flag} cannot take `{value}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(argv: &[&str]) -> Flags {
        let argv = argv.iter().map(|a| a.to_string());
        Flags::from_args(argv, &["--rows", "--fig", "--sizes", "--out"], &["--all"])
    }

    #[test]
    fn values_switches_repeats_and_lists() {
        let f = flags(&[
            "--rows", "12", "--fig", "7", "--all", "--fig", "9", "--sizes", "4,8",
        ]);
        assert_eq!(f.get("--rows", 6_000usize), 12);
        assert_eq!(f.get("--out", "BENCH.json".to_owned()), "BENCH.json");
        assert!(f.has("--all"));
        assert_eq!(f.all::<u32>("--fig"), [7, 9]);
        assert_eq!(f.list("--sizes", vec![10usize]), [4, 8]);
        assert_eq!(f.opt::<String>("--out"), None);
        // The last of a repeated single-value flag wins.
        assert_eq!(flags(&["--rows", "1", "--rows", "2"]).get("--rows", 0), 2);
    }

    #[test]
    #[should_panic(expected = "unknown argument `--nope`")]
    fn unknown_arguments_panic() {
        flags(&["--nope"]);
    }
}
