//! The identification pipeline of Table I.

/// The four thread pools of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pool {
    /// Request admission/bookkeeping pool.
    Http,
    /// Image download pool.
    Download,
    /// GPU inference pool.
    Extract,
    /// Similarity-search pool.
    Simsearch,
}

/// Where a task executes (Table I's "Hardware" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hardware {
    /// CPU-resident work.
    Cpu,
    /// GPU-resident work (DNN inference).
    Gpu,
}

/// The nine identification processing steps, in execution order (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Task {
    /// Decoding the query parameters.
    PreProcess,
    /// Wait for an available download thread.
    WaitDownload,
    /// Download images.
    Download,
    /// Wait for an available extractor thread.
    WaitExtract,
    /// DNN inference of the image.
    Extract,
    /// Process classification and similarity-search output at query level.
    Process,
    /// Wait for an available similarity-search thread.
    WaitSimsearch,
    /// Search the most similar images in the botanical database.
    Simsearch,
    /// Check processed query results and format the response.
    PostProcess,
}

impl Task {
    /// All tasks in execution order.
    pub const ORDER: [Task; 9] = [
        Task::PreProcess,
        Task::WaitDownload,
        Task::Download,
        Task::WaitExtract,
        Task::Extract,
        Task::Process,
        Task::WaitSimsearch,
        Task::Simsearch,
        Task::PostProcess,
    ];

    /// The pool that *executes* the task (wait steps belong to the pool
    /// being waited for, matching Table I's second pool column).
    pub fn pool(&self) -> Pool {
        match self {
            Task::PreProcess | Task::Process | Task::PostProcess => Pool::Http,
            Task::WaitDownload | Task::Download => Pool::Download,
            Task::WaitExtract | Task::Extract => Pool::Extract,
            Task::WaitSimsearch | Task::Simsearch => Pool::Simsearch,
        }
    }

    /// Hardware the task runs on (Table I).
    pub fn hardware(&self) -> Hardware {
        match self {
            Task::Extract => Hardware::Gpu,
            _ => Hardware::Cpu,
        }
    }

    /// Metric label, e.g. `wait-extract`, matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Task::PreProcess => "pre-process",
            Task::WaitDownload => "wait-download",
            Task::Download => "download",
            Task::WaitExtract => "wait-extract",
            Task::Extract => "extract",
            Task::Process => "process",
            Task::WaitSimsearch => "wait-simsearch",
            Task::Simsearch => "simsearch",
            Task::PostProcess => "post-process",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_declaration_order() {
        // `plantnet::sim` indexes per-task statistics by `Task as usize`.
        for (i, task) in Task::ORDER.iter().enumerate() {
            assert_eq!(*task as usize, i, "{task:?}");
        }
    }

    #[test]
    fn order_matches_table_i() {
        let labels: Vec<&str> = Task::ORDER.iter().map(|t| t.label()).collect();
        assert_eq!(
            labels,
            vec![
                "pre-process",
                "wait-download",
                "download",
                "wait-extract",
                "extract",
                "process",
                "wait-simsearch",
                "simsearch",
                "post-process",
            ]
        );
    }

    #[test]
    fn only_extract_is_gpu() {
        for t in Task::ORDER {
            if t == Task::Extract {
                assert_eq!(t.hardware(), Hardware::Gpu);
            } else {
                assert_eq!(t.hardware(), Hardware::Cpu);
            }
        }
    }

    #[test]
    fn pool_assignment_matches_table_i() {
        assert_eq!(Task::PreProcess.pool(), Pool::Http);
        assert_eq!(Task::WaitDownload.pool(), Pool::Download);
        assert_eq!(Task::Download.pool(), Pool::Download);
        assert_eq!(Task::WaitExtract.pool(), Pool::Extract);
        assert_eq!(Task::Extract.pool(), Pool::Extract);
        assert_eq!(Task::Process.pool(), Pool::Http);
        assert_eq!(Task::WaitSimsearch.pool(), Pool::Simsearch);
        assert_eq!(Task::Simsearch.pool(), Pool::Simsearch);
        assert_eq!(Task::PostProcess.pool(), Pool::Http);
    }
}
