// Seeded violations: scratch directories named by the process id alone,
// which parallel tests of one binary share and delete under each other.

use std::env;
use std::env::temp_dir;

pub fn full_path() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pitract-a-{}", std::process::id()))
}

pub fn module_path() -> std::path::PathBuf {
    env::temp_dir().join("pitract-b")
}

pub fn imported() -> std::path::PathBuf {
    temp_dir().join("pitract-c")
}

#[cfg(test)]
mod tests {
    #[test]
    fn in_a_test() {
        let _ = std::env::temp_dir();
    }
}
