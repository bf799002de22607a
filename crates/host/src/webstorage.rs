//! **WebStorage** — the paper's prototype "online storage service": "an
//! online file system accessible over a Web browser where users can upload
//! arbitrary files and create an arbitrary directory structure" (§VI).
//!
//! It can also act as a Requester: "the storage service can access photos
//! hosted at the online gallery. For example, it may act as a backup
//! service for online photo albums" — see the `/backup` route. A backup
//! acts for the session's user, with that user's own assertion.

use std::borrow::Cow;
use std::sync::Arc;

use ucam_policy::Action;
use ucam_webenv::Method::{Get, Post};
use ucam_webenv::{Method, Request, Response, SimClock, Status, Transport, WebApp};

use crate::shell::Caller::{Pep, Session};
use crate::shell::{AppShell, Call, Route};

/// The online storage service application.
///
/// Routes (the class column is who may call them, DESIGN.md §17):
///
/// | Route | Class | Meaning |
/// |---|---|---|
/// | `POST /files?path=p` (body) | Session | upload a file |
/// | `GET /files/<path>` | Pep | read a file |
/// | `POST /files/<path>` (body) | Pep | overwrite a file |
/// | `DELETE /files/<path>` | Pep | delete a file |
/// | `POST /mkdir?path=d` | Session | create a directory |
/// | `GET /list?dir=d` | Pep | list a directory |
/// | `POST /backup?from=h&src=r&dest=p` | Session | fetch a remote resource for the session's user (acting as a Requester with that user's assertion) and store it as theirs |
/// | common | | `/delegate/setup`, `/delegate/done`, `/share`, `/acl`, … from [`AppShell`] |
pub struct WebStorage {
    shell: AppShell,
}

impl std::fmt::Debug for WebStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WebStorage")
            .field("shell", &self.shell)
            .finish()
    }
}

impl WebStorage {
    /// The storage service's own routes, served after the shell's.
    const ROUTES: &'static [Route<Self>] = &[
        (Some(Post), "/files", Session, Self::upload),
        (Some(Post), "/mkdir", Session, Self::mkdir),
        (None, "/files/", Pep, Self::file_route),
        (Some(Get), "/list", Pep, Self::list),
        (Some(Post), "/backup", Session, Self::backup),
    ];

    /// Creates the storage service at `authority`.
    #[must_use]
    pub fn new(authority: &str, clock: SimClock) -> Arc<Self> {
        Arc::new(WebStorage {
            shell: AppShell::new(authority, clock),
        })
    }

    /// Access to the shared shell (delegations, PEP, resources).
    #[must_use]
    pub fn shell(&self) -> &AppShell {
        &self.shell
    }

    fn upload(&self, c: Call<'_>) -> Response {
        let Some(path) = c.req.param("path") else {
            return Response::bad_request("path required");
        };
        let data = c.req.body.clone().into_bytes();
        self.shell.create(&c, format!("files/{path}"), "file", data)
    }

    fn mkdir(&self, c: Call<'_>) -> Response {
        let Some(path) = c.req.param("path") else {
            return Response::bad_request("path required");
        };
        self.shell
            .create(&c, format!("dirs/{path}"), "dir", Vec::new())
    }

    fn file_route(&self, c: Call<'_>) -> Response {
        // The resource id is the URL path after "/files/", prefixed with
        // "files/": the path itself past its slash, unless the prefix
        // repeats and was stripped more than once.
        let full = c.req.url.path();
        let path = full.trim_start_matches("/files/");
        let id: Cow<'_, str> = match full.strip_suffix(path) {
            Some("/files/") => Cow::Borrowed(&full[1..]),
            _ => Cow::Owned(format!("files/{path}")),
        };
        let action = match c.req.method {
            Method::Get => Action::Read,
            Method::Post | Method::Put => Action::Write,
            Method::Delete => Action::Delete,
        };
        if let Err(resp) = self.shell.enforce_web(&c, &id, &action) {
            return resp;
        }
        match action {
            Action::Read => match self.shell.core.resource_text(&id) {
                Some(text) => Response::ok().with_body(text),
                None => Response::not_found(&id),
            },
            Action::Write => match self
                .shell
                .core
                .update_resource(&id, c.req.body.clone().into_bytes())
            {
                Ok(()) => Response::ok().with_body("updated"),
                Err(e) => Response::not_found(&e.to_string()),
            },
            Action::Delete => match self.shell.core.delete_resource(&id) {
                Ok(_) => Response::with_status(Status::NoContent),
                Err(e) => Response::not_found(&e.to_string()),
            },
            _ => Response::bad_request("unsupported action"),
        }
    }

    fn list(&self, c: Call<'_>) -> Response {
        let Some(dir) = c.req.param("dir") else {
            return Response::bad_request("dir required");
        };
        if let Err(resp) = self
            .shell
            .enforce_web(&c, &format!("dirs/{dir}"), &Action::List)
        {
            return resp;
        }
        let children = self.shell.core.ids_with_prefix(&format!("files/{dir}/"));
        Response::ok().with_body(children.join("\n"))
    }

    /// Acting as a Requester (§VI) for the session's user: fetch a
    /// resource from another Host via the full token flow and store it
    /// locally as that user's backup.
    fn backup(&self, c: Call<'_>) -> Response {
        let req = c.req;
        let (Some(from), Some(src), Some(dest)) =
            (req.param("from"), req.param("src"), req.param("dest"))
        else {
            return Response::bad_request("from, src, dest required");
        };
        match self.shell.fetch_for(&c, from, src) {
            Ok(body) => self
                .shell
                .create(&c, format!("files/{dest}"), "file", body.into_bytes()),
            Err(resp) => resp,
        }
    }
}

impl WebApp for WebStorage {
    fn authority(&self) -> &str {
        self.shell.core.authority()
    }

    fn handle(&self, net: &dyn Transport, req: &Request) -> Response {
        self.shell.serve(self, Self::ROUTES, net, req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucam_webenv::identity::IdentityProvider;
    use ucam_webenv::{SimNet, Url};

    fn setup() -> (SimNet, Arc<WebStorage>, String) {
        let net = SimNet::new();
        let storage = WebStorage::new("webstorage.example", net.clock().clone());
        let idp = IdentityProvider::new("idp.example", net.clock().clone());
        idp.register_user("bob", "pw");
        storage.shell().set_identity_verifier(idp.verifier());
        net.register(storage.clone());
        let token = idp.login("bob", "pw").unwrap().token;
        (net, storage, token)
    }

    #[test]
    fn upload_requires_session() {
        let (net, _, _) = setup();
        let resp = net.dispatch(
            "browser:anon",
            Request::new(Method::Post, "https://webstorage.example/files")
                .with_param("path", "a.txt")
                .with_body("hello"),
        );
        assert_eq!(resp.status, Status::Unauthorized);
    }

    #[test]
    fn upload_read_update_delete_by_owner() {
        let (net, _, token) = setup();
        let upload = net.dispatch(
            "browser:bob",
            Request::new(Method::Post, "https://webstorage.example/files")
                .with_param("path", "trips/rome.txt")
                .with_param("subject_token", &token)
                .with_body("trip notes"),
        );
        assert_eq!(upload.status, Status::Created);

        let read = net.dispatch(
            "browser:bob",
            Request::new(
                Method::Get,
                "https://webstorage.example/files/trips/rome.txt",
            )
            .with_param("subject_token", &token),
        );
        assert_eq!(read.status, Status::Ok);
        assert_eq!(read.body, "trip notes");

        let update = net.dispatch(
            "browser:bob",
            Request::new(
                Method::Post,
                "https://webstorage.example/files/trips/rome.txt",
            )
            .with_param("subject_token", &token)
            .with_body("updated notes"),
        );
        assert_eq!(update.status, Status::Ok);

        let del = net.dispatch(
            "browser:bob",
            Request::new(
                Method::Delete,
                "https://webstorage.example/files/trips/rome.txt",
            )
            .with_param("subject_token", &token),
        );
        assert_eq!(del.status, Status::NoContent);
    }

    #[test]
    fn duplicate_upload_conflicts() {
        let (net, _, token) = setup();
        for _ in 0..2 {
            let last = net.dispatch(
                "browser:bob",
                Request::new(Method::Post, "https://webstorage.example/files")
                    .with_param("path", "a.txt")
                    .with_param("subject_token", &token)
                    .with_body("x"),
            );
            if last.status == Status::Created {
                continue;
            }
            assert_eq!(last.status, Status::Conflict);
            return;
        }
        panic!("second upload must conflict");
    }

    #[test]
    fn stranger_read_denied_by_default() {
        let (net, _, token) = setup();
        net.dispatch(
            "browser:bob",
            Request::new(Method::Post, "https://webstorage.example/files")
                .with_param("path", "secret.txt")
                .with_param("subject_token", &token)
                .with_body("secret"),
        );
        // Anonymous, undelegated: legacy default-deny.
        let read = net.dispatch(
            "browser:anon",
            Request::new(Method::Get, "https://webstorage.example/files/secret.txt"),
        );
        assert_eq!(read.status, Status::Forbidden);
    }

    #[test]
    fn mkdir_and_list() {
        let (net, _, token) = setup();
        let mk = net.dispatch(
            "browser:bob",
            Request::new(Method::Post, "https://webstorage.example/mkdir")
                .with_param("path", "trips")
                .with_param("subject_token", &token),
        );
        assert_eq!(mk.status, Status::Created);
        for name in ["trips/rome.txt", "trips/oslo.txt", "other.txt"] {
            net.dispatch(
                "browser:bob",
                Request::new(Method::Post, "https://webstorage.example/files")
                    .with_param("path", name)
                    .with_param("subject_token", &token)
                    .with_body("x"),
            );
        }
        let list = net.dispatch(
            "browser:bob",
            Request::new(Method::Get, "https://webstorage.example/list")
                .with_param("dir", "trips")
                .with_param("subject_token", &token),
        );
        assert_eq!(list.status, Status::Ok);
        assert_eq!(list.body, "files/trips/oslo.txt\nfiles/trips/rome.txt");
    }

    /// A delegation whose AM authority is empty (stored by hand, past
    /// `/delegate/done`'s check) fails closed: a token-bearing read gets
    /// 503 over SimNet and over loopback HTTP, where the Host answers
    /// from its own server thread, and so does a batched round.
    #[test]
    fn an_empty_am_authority_fails_closed_on_both_transports() {
        use crate::core::{AccessAttempt, DelegationConfig, Enforcement};
        use ucam_webenv::HttpTransport;

        let backends: [Arc<dyn Transport>; 2] =
            [Arc::new(SimNet::new()), Arc::new(HttpTransport::new())];
        for net in backends {
            let storage = WebStorage::new("webstorage.example", net.clock().clone());
            let core = &storage.shell().core;
            core.put_resource("files/a.txt", "bob", "file", b"a".to_vec())
                .unwrap();
            core.set_user_delegation(
                "bob",
                DelegationConfig {
                    am: String::new(),
                    host_token: "ht".into(),
                    delegation_id: "d-1".into(),
                },
            );
            net.register(storage.clone());
            let read = net.dispatch(
                "requester:printer",
                Request::new(Method::Get, "https://webstorage.example/files/a.txt")
                    .with_header("x-requester", "requester:printer")
                    .with_bearer("tok"),
            );
            assert_eq!(read.status, Status::Unavailable, "{}", net.name());
            assert_eq!(read.transport_error(), None, "{}", net.name());

            let attempt = AccessAttempt {
                requester: "requester:printer".into(),
                subject: None,
                resource_id: "files/a.txt".into(),
                action: Action::Read,
                bearer: Some("tok".into()),
                return_url: Url::new("webstorage.example", "/files/a.txt"),
            };
            let round = core.enforce_batch(net.as_ref(), &[attempt], 4);
            match &round[..] {
                [Enforcement::Block(resp)] => {
                    assert_eq!(resp.status, Status::Unavailable, "{}", net.name());
                }
                other => panic!("{}: batched read settled as {other:?}", net.name()),
            }
            net.unregister("webstorage.example");
        }
    }

    #[test]
    fn unknown_route_404() {
        let (net, _, _) = setup();
        let resp = net.dispatch(
            "x",
            Request::new(Method::Get, "https://webstorage.example/nope"),
        );
        assert_eq!(resp.status, Status::NotFound);
    }

    /// WebStorage's rows. The second `/backup` entry is the shared-client
    /// hole: right after Bob's own backup, another user's backup of the
    /// same photo once rode Bob's cached token (201).
    #[test]
    fn every_storage_route_answers_each_caller_as_pinned() {
        use crate::shell::route_matrix::{check, pin};
        const BACKUP: &str = "/backup?from=webpics.example&src=photos/rome/p1&dest=copy";
        const FIRST: &str = "/backup?from=webpics.example&src=photos/rome/p1&dest=first";
        // Columns: anonymous, another user, the owner, a host registrant,
        // the delegated host, a forged credential.
        let expected = [
            pin(
                "/files",
                Post,
                "/files?path=new.txt",
                [401, 201, 201, 401, 401, 401],
            ),
            pin(
                "/mkdir",
                Post,
                "/mkdir?path=new",
                [401, 201, 201, 401, 401, 401],
            ),
            pin(
                "/files/",
                Get,
                "/files/a.txt",
                [302, 302, 200, 302, 302, 302],
            ),
            pin(
                "/list",
                Get,
                "/list?dir=trips",
                [302, 302, 200, 302, 302, 302],
            ),
            pin("/backup", Post, BACKUP, [401, 403, 201, 401, 401, 401]),
            pin("/backup", Post, BACKUP, [401, 403, 201, 401, 401, 401]).after_owner(FIRST),
        ];
        check(WebStorage::ROUTES, &expected, |rig| &*rig.storage);
    }
}
